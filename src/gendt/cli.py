"""Command-line surface: ingest, replay, forecast, report.

Exit codes are stable: 0 ok, 2 input error, 3 config error, 4 halt-on-stop.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__, codec, report as report_mod
from .config import ConfigError, RunConfig, load_config
from .controller import run_epoch, run_replay
from .dataset import ingest_fixture
from .errors import GendtError
from .forecast import BACKEND_KINDS, AuthError
from .ptog import load_ptog, save_manifest, save_ptog
from .windowing import EpochPoint

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_HALTED = 4

REPORT_SCHEMA_VERSION = 1


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_ingest(args: argparse.Namespace) -> int:
    fixture = Path(args.fixture)
    if not fixture.is_dir():
        return _fail(EXIT_INPUT, f"fixture directory {fixture} does not exist")
    try:
        ptog = ingest_fixture(fixture)
        counts = f"{ptog.n_vertices} vertices, {ptog.n_series} series"
        if args.dry_run:
            print(f"dry run ok: {counts}")
            return EXIT_OK
        if args.workdir:
            counts += f", manifest {save_manifest(ptog, args.workdir)}"
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        save_ptog(ptog, out)
    except (GendtError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_INPUT, f"ingestion failed: {exc}")
    print(f"wrote {out}: {counts}")
    return EXIT_OK


def _load_replay_inputs(args: argparse.Namespace) -> tuple:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))
    backend = {"kind": args.backend, "max_in_flight": getattr(args, "max_in_flight", None)}
    backend = {k: v for k, v in backend.items() if v is not None}
    overrides = {}
    if getattr(args, "halt_on_stop", False):
        overrides["halt_on_stop"] = True
    if getattr(args, "health_scope", None):
        overrides["health_scope"] = args.health_scope
    try:
        config = replace(config, backend=replace(config.backend, **backend), **overrides)
        config.prompt_template  # read and checked here, before the first epoch
    except (ValueError, ConfigError) as exc:
        raise _CliError(EXIT_CONFIG, str(exc))
    if config.backend.kind == "llm_http" and not os.environ.get(config.backend.api_key_env):
        raise _CliError(
            EXIT_CONFIG,
            f"backend llm_http requires the environment variable "
            f"{config.backend.api_key_env} to hold the API credential",
        )
    ptog_path = Path(args.ptog)
    if not ptog_path.exists():
        raise _CliError(EXIT_INPUT, f"graph file {ptog_path} does not exist")
    try:
        ptog = load_ptog(ptog_path)
    except (GendtError, json.JSONDecodeError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot load graph: {exc}")
    return ptog, config


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _report_document(config: RunConfig, result, reproducible: bool) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "engine_version": __version__,
        "generated_at": None
        if reproducible
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "reproducible": reproducible,
        "config": config.to_dict(),
        "resolved": {"temperature": config.resolved_temperature()},
        "epochs": [r.to_dict() for r in result.reports],
        "summary": result.summary,
        "halted": result.halted,
    }


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        ptog, config = _load_replay_inputs(args)
    except _CliError as exc:
        return _fail(exc.code, str(exc))
    try:
        result = run_replay(ptog, config, reproducible=args.reproducible)
    except AuthError as exc:
        return _fail(EXIT_CONFIG, f"credential rejected: {exc}")
    except GendtError as exc:
        return _fail(EXIT_INPUT, f"replay failed: {exc}")
    doc = _report_document(config, result, args.reproducible)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        return _fail(EXIT_INPUT, f"cannot write report: {exc}")
    session = result.summary["session"]
    print(
        f"wrote {out}: {session['epochs']} epochs, {session['evaluated']} evaluated, "
        f"avg RMSE {session['avg_rmse']}, health {session['health']}"
    )
    if result.halted:
        print("halted on Stop decision", file=sys.stderr)
        return EXIT_HALTED
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    try:
        ptog, config = _load_replay_inputs(args)
    except _CliError as exc:
        return _fail(exc.code, str(exc))
    state = ptog.state_by_label(args.state)
    if state is None:
        return _fail(EXIT_INPUT, f"state {args.state!r} not present in the graph")
    run = next((r for r in ptog.runs if r.index == args.run), None)
    if run is None or not ptog.has_vertex(run, state):
        return _fail(EXIT_INPUT, f"(run {args.run}, {args.state}) is not a graph vertex")
    try:
        epoch_report = run_epoch(ptog, EpochPoint(run, state), config)
    except AuthError as exc:
        return _fail(EXIT_CONFIG, f"credential rejected: {exc}")
    except GendtError as exc:
        return _fail(EXIT_INPUT, f"forecast failed: {exc}")
    encoded = codec.encode(epoch_report.median, config.encoding)
    print(encoded.text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report)
    if not path.exists():
        return _fail(EXIT_INPUT, f"report file {path} does not exist")
    try:
        doc = report_mod.check_document(json.loads(path.read_text()))
        written = report_mod.write_report_artifacts(doc, args.out_dir)
    except (GendtError, json.JSONDecodeError) as exc:
        return _fail(EXIT_INPUT, f"malformed report: {exc}")
    print(f"wrote {len(written)} artifacts to {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gendt",
        description="Digital-twin replay engine: forecast process-state signals "
        "from prior runs and drive threshold-based feedback decisions.",
    )
    parser.add_argument("--version", action="version", version=f"gendt {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="segment a fixture and build the graph file")
    p_ingest.add_argument("--fixture", required=True, help="fixture directory (run_<k>.csv + fixture.json)")
    p_ingest.add_argument("--out", default="ptog.json", help="graph output path")
    p_ingest.add_argument("--workdir", default=None, help="also dump segment CSVs and a manifest here")
    p_ingest.add_argument("--dry-run", action="store_true", help="validate without writing")
    p_ingest.set_defaults(func=cmd_ingest)

    def add_common(p):
        p.add_argument("--ptog", required=True, help="graph JSON produced by ingest")
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--backend", choices=BACKEND_KINDS, default=None,
                       help="override the configured backend kind")

    p_replay = sub.add_parser("replay", help="run every epoch and write the session report")
    add_common(p_replay)
    p_replay.add_argument("--out", default="report.json", help="report output path")
    p_replay.add_argument("--reproducible", action="store_true",
                          help="exclude timestamps and timings so reports byte-compare")
    p_replay.add_argument("--halt-on-stop", action="store_true",
                          help="stop the replay at the first Stop decision (exit 4)")
    p_replay.add_argument("--health-scope", choices=("session", "run"), default=None,
                          help="reset the cumulative health error per run or never")
    p_replay.add_argument("--max-in-flight", type=int, default=None,
                          help="cap concurrent backend requests within one epoch")
    p_replay.set_defaults(func=cmd_replay)

    p_forecast = sub.add_parser("forecast", help="forecast a single epoch and print the median vector")
    add_common(p_forecast)
    p_forecast.add_argument("--run", type=int, required=True)
    p_forecast.add_argument("--state", required=True, help="state label, e.g. P1")
    p_forecast.set_defaults(func=cmd_forecast)

    p_report = sub.add_parser("report", help="emit CSV/SVG views from a replay report")
    p_report.add_argument("--report", required=True, help="report JSON from replay")
    p_report.add_argument("--out-dir", default="report_artifacts")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    return args.func(args)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
