"""Command-line surface: ingest, replay, forecast, report.

Exit codes are stable: 0 ok, 2 input error, 3 config error, 4 halted on Stop,
130 interrupted. Each command raises its errors, and `main` alone maps one to
a code and one `error:` line: a `ConfigError`, `AuthError` or `ProxyError`
(config file, prompt template, credential, proxy variable) exits 3; any
other `GendtError` (an input that fails its check, a failed forecast) and an
`OSError` (an output path that cannot be written) exit 2; a
`KeyboardInterrupt` (Ctrl-C, SIGINT) exits 130, the shell's code for SIGINT,
and writes no report.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional

from . import __version__, codec, report as report_mod
from .config import ConfigError, RunConfig, load_config
from .controller import run_replay
from .dataset import FIXTURE_META_NAME, ingest_fixture
from .errors import GendtError, read_json
from .forecast import BACKEND_KINDS, AuthError, ForecastError, ProxyError
from .ptog import PtogError, RunId, load_ptog, save_manifest, save_ptog
from .windowing import EpochPoint

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_HALTED = 4
EXIT_INTERRUPTED = 130

REPORT_SCHEMA_VERSION = 1


def _refuse_out_over_inputs(out: Path, inputs: Iterable[tuple[Path, str]], writes: str) -> None:
    """Raise a GendtError when `out` is an existing file that is one of the
    command's `inputs`, (path, name) pairs, by whatever path, a symlink or a
    hard link among them: no output may replace an input of the command that
    writes it. `inputs` is read only when `out` exists."""
    try:
        written = os.stat(out)
    except OSError:  # nothing there to replace; the write reports any other fault
        return
    for path, name in inputs:
        try:
            read = os.stat(path)
        except OSError:
            continue
        if os.path.samestat(written, read):
            raise GendtError(f"--out {out} is the {name}; write the {writes} elsewhere")


def cmd_ingest(args: argparse.Namespace) -> int:
    fixture, out = Path(args.fixture), Path(args.out)
    inputs = chain([fixture / FIXTURE_META_NAME], fixture.glob("run_*.csv"))
    _refuse_out_over_inputs(out, ((p, f"--fixture file {p.name}") for p in inputs), "graph")
    ptog = ingest_fixture(fixture)
    counts = f"{ptog.n_vertices} vertices, {ptog.n_series} series"
    if args.dry_run:
        print(f"dry run ok: {counts}")
        return EXIT_OK
    if args.workdir:
        counts += f", manifest {save_manifest(ptog, args.workdir)}"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_ptog(ptog, out)
    print(f"wrote {out}: {counts}")
    return EXIT_OK


def _load_replay_inputs(args: argparse.Namespace, backend_kind: Optional[str] = None) -> tuple:
    """The config, its prompt template and credential checked, and the graph.
    `backend_kind` is `replay --backend`, the one override left (see ROADMAP)."""
    config = load_config(args.config)
    if backend_kind is not None:
        try:
            config = replace(config, backend=replace(config.backend, kind=backend_kind))
        except ValueError as exc:
            raise ConfigError(f"--backend {backend_kind}: {exc}") from exc
    config.prompt_template  # read and checked here, before the first epoch
    if config.backend.kind == "llm_http" and not os.environ.get(config.backend.api_key_env):
        raise ConfigError(
            f"backend llm_http requires the environment variable "
            f"{config.backend.api_key_env} to hold the API credential"
        )
    return load_ptog(args.ptog), config


def _report_text(config: RunConfig, result, reproducible: bool) -> str:
    """The replay report: its top-level keys indented and sorted, and each
    epoch record one line with sorted keys (an indent would make `json` use
    its pure-Python encoder throughout). A reproducible one has no timestamp
    and zero timings."""
    epochs = [r.to_dict() for r in result.reports]
    if reproducible:
        for epoch in epochs:
            epoch["timing"] = 0.0
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "engine_version": __version__,
        "generated_at": None
        if reproducible
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "reproducible": reproducible,
        "config": config.to_dict(),
        "resolved": {"temperature": config.resolved_temperature()},
        "epochs": [None],  # the placeholder that the epoch lines replace
        "summary": result.summary,
        "halted": result.halted,
    }
    lines = ",\n".join("    " + json.dumps(e, sort_keys=True) for e in epochs)
    block = f"[\n{lines}\n  ]" if epochs else "[]"
    text = json.dumps(doc, indent=2, sort_keys=True)
    # only the top-level key can match: a string value holds no raw newline
    return text.replace('\n  "epochs": [\n    null\n  ]', f'\n  "epochs": {block}', 1) + "\n"


def cmd_replay(args: argparse.Namespace) -> int:
    ptog, config = _load_replay_inputs(args, args.backend)
    out = Path(args.out)
    inputs = [(args.ptog, "--ptog graph file"), (args.config, "--config file")]
    if config.prompt_template_path is not None:
        inputs.append((config.prompt_template_path, "config's prompt template"))
    _refuse_out_over_inputs(out, inputs, "report")
    result = run_replay(ptog, config)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_report_text(config, result, args.reproducible))
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
    ptog, config = _load_replay_inputs(args)
    state = ptog.state_by_label(args.state)
    if state is None:
        raise PtogError(f"state {args.state!r} not present in the graph")
    epoch = EpochPoint(RunId(args.run), state)
    if epoch not in ptog.vertices:
        raise PtogError(f"(run {args.run}, {args.state}) is not a graph vertex")
    (report,) = run_replay(ptog, config, [epoch]).reports
    if "epoch_failed" in report.flags:
        raise ForecastError(f"forecast failed: {report.flags[1]}")
    print(codec.encode(report.median, config.encoding).text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    doc = report_mod.check_document(read_json(args.report, report_mod.ReportError))
    written = report_mod.write_report_artifacts(doc, args.out_dir)
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

    p_replay = sub.add_parser("replay", help="run every epoch and write the session report")
    add_common(p_replay)
    p_replay.add_argument("--backend", choices=BACKEND_KINDS, default=None,
                          help="deprecated: override backend.kind; set it in the config")
    p_replay.add_argument("--out", default="report.json", help="report output path")
    p_replay.add_argument("--reproducible", action="store_true",
                          help="exclude timestamps and timings so reports byte-compare")
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
    """Run one command; the only place an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (GendtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigError, AuthError, ProxyError)) else EXIT_INPUT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
