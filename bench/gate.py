"""Correctness gate for the benchmark's outputs.

A replay report is reduced to a digest of its decision-relevant fields, with
timings and the resolved configuration left out (the configuration carries
the stub's port). `attempt_rmse` enters sorted: which attempt index received
which reply depends on request order under concurrency, the set does not.
An ingested graph is reduced to a digest of its content.

    python3 bench/gate.py REPORT --expect DIGEST --epochs N --attempts K [--secret S]

exits 0 when the report passes every check and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

EPOCH_FIELDS = (
    "run",
    "state",
    "history_runs",
    "attempts_used",
    "median",
    "sd",
    "truth",
    "q_rmse",
    "err_avg",
    "err_std",
    "attempt_rmse",
    "decision",
    "cumulative_rmse",
    "health",
    "flags",
)


class GateError(Exception):
    """A benchmark output is wrong."""


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(doc: dict) -> str:
    epochs = []
    for record in doc["epochs"]:
        fields = {k: record[k] for k in EPOCH_FIELDS}
        if fields["attempt_rmse"] is not None:
            fields["attempt_rmse"] = sorted(fields["attempt_rmse"])
        epochs.append(fields)
    return _digest({"epochs": epochs, "summary": doc["summary"]})


def check_report(
    text: str,
    epochs: int,
    attempts_used: int,
    secret: Optional[str] = None,
    expect: Optional[str] = None,
) -> str:
    """Check one report's text and return its digest; raise GateError on a failure.

    Every one of `epochs` epochs must be evaluated with exactly
    `attempts_used` successful attempts, `secret` must not occur anywhere in
    the text, and the digest must equal `expect` when one is given.
    """
    if secret and secret in text:
        raise GateError("the credential appears in the report")
    try:
        doc = json.loads(text)
        records = doc["epochs"]
        session = doc["summary"]["session"]
        digest = report_digest(doc)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GateError(f"malformed report: {exc!r}") from exc
    if len(records) != epochs or session["evaluated"] != epochs:
        raise GateError(
            f"expected {epochs} evaluated epochs, report has {len(records)} "
            f"with {session['evaluated']} evaluated"
        )
    wrong = [
        (r["run"], r["state"], r["attempts_used"])
        for r in records
        if r["attempts_used"] != attempts_used or r["q_rmse"] is None
    ]
    if wrong:
        raise GateError(f"{len(wrong)} epochs not evaluated with {attempts_used} attempts: {wrong[:3]}")
    if expect is not None and digest != expect:
        raise GateError(f"report digest {digest} differs from the reference {expect}")
    return digest


def graph_digest(ptog) -> str:
    """Digest of a loaded graph's series, sensors and run metadata."""
    series = [
        [run.index, state.label, s.sensor.name, s.sensor.unit, s.sample_rate_hz, list(s.samples)]
        for (run, state), s in sorted(
            ptog.series.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index)
        )
    ]
    metadata = sorted([run.index, dict(meta)] for run, meta in ptog.run_metadata.items())
    return _digest({"series": series, "metadata": metadata})


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Check a replay report against a digest")
    parser.add_argument("report", help="replay report JSON")
    parser.add_argument("--expect", required=True, help="expected report digest")
    parser.add_argument("--epochs", type=int, required=True, help="expected evaluated epochs")
    parser.add_argument("--attempts", type=int, required=True, help="expected attempts_used")
    parser.add_argument("--secret", default=None, help="text that must not appear in the report")
    args = parser.parse_args(argv)
    try:
        text = Path(args.report).read_text()
        check_report(text, args.epochs, args.attempts, args.secret, args.expect)
    except (OSError, GateError) as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
