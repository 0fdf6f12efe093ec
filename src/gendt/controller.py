"""Feedback decisions and the replay pipeline: plan, forecast, score, fold.

A replay plans every epoch's inputs and forecast request, forecasts each
epoch (`run_epoch`), scores the forecasts in batches of alike epochs, then
folds them in epoch order. The plan holds each series it reads as a
`PreparedVertex`, filtered, decimated and encoded once. Epochs are forecast
in chunks, the one lookahead rule: under `llm_http` a chunk's attempts are
all queued on the replay's one attempt pool before its first epoch runs, so
the workers do not drain at an epoch boundary inside it. Only the fold
depends on earlier epochs: per-epoch control is a three-level policy on the
forecast error, and production health folds epoch errors into a cumulative
total checked against a budget.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from . import codec, dsp
from .ensemble import aggregate, error_stats, rmse
from .errors import GendtError
from .forecast import (
    AllAttemptsFailed,
    AttemptPool,
    ForecastRequest,
    forecast_ensemble,
    noise_seeds,
)
from .ptog import MeasurementSeries, Ptog
from .windowing import EpochPoint, enumerate_epochs, extract_window

if TYPE_CHECKING:
    from .config import RunConfig


class ControlError(GendtError):
    pass


class ControlDecision(enum.IntEnum):
    """Three-level policy outcome, ordered by severity."""

    CONTINUE = 0
    WARNING = 1
    STOP = 2

    @property
    def label(self) -> str:
        return _DECISION_LABELS[self]


_DECISION_LABELS = {
    ControlDecision.CONTINUE: "Continue",
    ControlDecision.WARNING: "Warning",
    ControlDecision.STOP: "Stop",
}

NO_ACTION = "no action"


@dataclass(frozen=True)
class ControlThresholds:
    t_low: float
    t_high: float
    t_health: float

    def __post_init__(self) -> None:
        if not 0 < self.t_low <= self.t_high:
            raise ControlError(
                f"thresholds must satisfy 0 < t_low <= t_high, got ({self.t_low}, {self.t_high})"
            )
        if not self.t_health > 0:
            raise ControlError(f"t_health must be > 0, got {self.t_health}")


@dataclass(frozen=True)
class HealthVerdict:
    value: str  # "Pass" | "Fail"
    cumulative: float


def decide(q: float, th: ControlThresholds) -> ControlDecision:
    """Continue below t_low, Warning inside the closed band, Stop above t_high."""
    if not math.isfinite(q) or q < 0:
        raise ControlError(f"quantity of interest must be finite and >= 0, got {q!r}")
    if q < th.t_low:
        return ControlDecision.CONTINUE
    if q <= th.t_high:
        return ControlDecision.WARNING
    return ControlDecision.STOP


def accumulate_health(prior: float, q: float, th: ControlThresholds) -> HealthVerdict:
    """Fold one epoch error into the running total; Fail only strictly above budget."""
    if prior < 0 or q < 0 or not (math.isfinite(prior) and math.isfinite(q)):
        raise ControlError(f"cumulative inputs must be finite and >= 0, got ({prior!r}, {q!r})")
    cumulative = prior + q
    return HealthVerdict("Fail" if cumulative > th.t_health else "Pass", cumulative)


@dataclass
class EpochReport:
    """Per-epoch record; to_dict() is the JSON schema used in replay reports.

    The defaults are a failed epoch's record. `run_epoch` sets the forecast's
    fields, the replay's score phase the aggregate and errors, and its fold
    `decision`, `cumulative_rmse` and `health`.
    """

    run: int
    state: str
    history_runs: list[int] = field(default_factory=list)
    horizon: int = 0
    attempts_used: int = 0
    median: list[float] = field(default_factory=list)
    sd: list[float] = field(default_factory=list)
    truth: Optional[list[float]] = None
    q_rmse: Optional[float] = None
    err_avg: Optional[float] = None
    err_std: Optional[float] = None
    attempt_rmse: Optional[list[float]] = None
    decision: str = NO_ACTION
    cumulative_rmse: Optional[float] = None
    health: Optional[str] = None
    flags: list[str] = field(default_factory=list)
    timing: float = 0.0
    downsample_factor: int = 0
    # the median's per-sample error (truth - median); feeds pooled summaries, not serialized
    errors: Optional[np.ndarray] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """The record's fields; its lists are shared with the report, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "errors"}


@dataclass(frozen=True)
class PreparedVertex:
    """One series a replay reads, filtered and decimated (`values`), and what
    `codec.encode_many` made of those values: their wire text and the values
    that text decodes to, or the CodecError encoding them raises."""

    series: MeasurementSeries
    values: np.ndarray
    result: Union[codec.Wire, codec.CodecError]

    def wire_or_raise(self) -> codec.Wire:
        """The vertex's wire; its encode error is raised as a fresh exception,
        so that a vertex read by many epochs does not grow one traceback."""
        if isinstance(self.result, codec.CodecError):
            raise type(self.result)(*self.result.args)
        return self.result


def _prepare(series: Iterable[Optional[MeasurementSeries]], config: "RunConfig") -> dict:
    """A table of prepared vertices keyed by (run, state): the given series
    (None entries skipped), filtered and decimated in one batch per sample
    rate, and encoded by one `codec.encode_many` pass."""
    todo = {(s.run, s.state): s for s in series if s is not None}
    values = dsp.preprocess_many(list(todo.values()), config.filter, config.downsample)
    wires = codec.encode_many(values, config.encoding)
    return {key: PreparedVertex(s, v, w) for (key, s), v, w in zip(todo.items(), values, wires)}


def _request(
    window: tuple[PreparedVertex, ...],
    target: Optional[PreparedVertex],
    seeds: Optional[np.ndarray],
    config: "RunConfig",
) -> Union[ForecastRequest, codec.CodecError]:
    """The forecast request of an epoch, made in `run_replay`'s plan:
    its history's joined wire text in the prompt, and the target's decoded
    wire text for the oracle backend alone, which is defined to receive it.
    A window or oracle target vertex that cannot be encoded gives its
    CodecError in place of a request."""
    try:
        # the join of per-vertex encodings is the encoding of the concatenation
        sensor_text = config.encoding.separator.join(v.wire_or_raise().text for v in window)
        oracle = config.backend.kind == "oracle" and target is not None
        return ForecastRequest(
            prompt=codec.build_prompt(sensor_text, config.prompt_template),
            temperature=config.resolved_temperature(),
            top_p=config.ensemble.top_p,
            attempts=config.ensemble.attempts,
            horizon=len(window[-1].values),
            encoding=config.encoding,
            last_history=window[-1].values,
            seeds=seeds,
            truth=target.wire_or_raise().decoded if oracle else None,
        )
    except codec.CodecError as exc:
        return exc


def run_epoch(
    epoch: EpochPoint,
    window: tuple[PreparedVertex, ...],
    target: Optional[PreparedVertex],
    request: Union[ForecastRequest, codec.CodecError],
    config: "RunConfig",
    pool: AttemptPool,
) -> tuple[EpochReport, Optional[np.ndarray], Optional[np.ndarray]]:
    """One planned epoch and its `_request`, turned into its record (flags,
    history, horizon, timing), attempt matrix and truth.

    `window` is the epoch's history, oldest first, and `target` its own
    series, None when the graph carries none, each as its prepared vertex.
    Run the forecast ensemble (`llm_http` attempts on the replay's `pool`),
    then read the identically prepared ground truth, the target's decoded
    wire text, so that truth and forecast compare like with like; the target
    is consulted only after the forecast is fixed, and cut to the horizon; it
    is None without ground truth.
    An epoch with no request (its CodecError instead), a target vertex that
    cannot be encoded, or no successful attempt is recorded as failed: flags
    "epoch_failed" and the error's class name, no matrix and no truth.
    """
    start = time.perf_counter()
    try:
        if isinstance(request, codec.CodecError):
            raise request  # nothing was queued or is sent for it
        _, rows = forecast_ensemble(config.backend, request, pool)
        truth = None if target is None else target.wire_or_raise().decoded
    except (AllAttemptsFailed, codec.CodecError) as exc:
        flags = ["epoch_failed", type(exc).__name__]
        return EpochReport(epoch.run.index, epoch.state.label, flags=flags), None, None

    horizon = request.horizon
    flags = ["short_history"] if len(window) < config.history_depth else []
    if len(rows) < config.ensemble.attempts:
        flags.append("failed_attempts")
    if truth is None:
        flags.append("no_ground_truth")
    elif len(truth) != horizon:
        flags.append("length_truncated")
        truth = truth[:horizon]

    report = EpochReport(
        run=epoch.run.index,
        state=epoch.state.label,
        history_runs=[v.series.run.index for v in window],
        horizon=horizon,
        attempts_used=len(rows),
        flags=flags,
        timing=(time.perf_counter() - start) * 1000.0,
        downsample_factor=config.downsample.factor_for(window[-1].series.sample_rate_hz),
    )
    return report, rows, truth


def _forecast(chunk: Sequence[tuple], config: "RunConfig", pool: AttemptPool) -> list[tuple]:
    """`run_epoch` of each planned epoch of `chunk`, in order, with every
    `llm_http` request of the chunk queued on `pool` before the first."""
    if config.backend.kind == "llm_http":
        for *_, request in chunk:
            if isinstance(request, ForecastRequest):
                pool.queue(request)
    return [run_epoch(*planned, config, pool) for planned in chunk]


def _score(forecasts: list[tuple]) -> list[EpochReport]:
    """Aggregate and score forecast epochs in one pass over each group of equal
    (successes, horizon, truth length). In a group's one difference array,
    truth minus the median and minus each attempt, row 0 gives `q_rmse` and
    the error stats and the other rows the per-attempt RMSEs."""
    groups: dict[tuple, list[tuple]] = {}
    for report, rows, truth in forecasts:
        if rows is not None:
            key = (*rows.shape, None if truth is None else len(truth))
            groups.setdefault(key, []).append((report, rows, truth))
    for (_, _, n), members in groups.items():
        reports, rows, truths = zip(*members)
        rows = np.stack(rows)
        estimate = aggregate(rows)
        for report, median, sd in zip(reports, estimate.median.tolist(), estimate.sd.tolist()):
            report.median = median
            report.sd = sd
        if n is None:
            continue
        diff = np.stack(truths)[:, None] - np.concatenate(
            (estimate.median[:, None, :n], rows[..., :n]), axis=1)
        errors = diff[:, 0].copy()  # the reports keep its rows; a view would keep all of diff
        q = rmse(diff).tolist()
        err_avg, err_std = error_stats(errors)
        for i, (report, truth) in enumerate(zip(reports, truths)):
            report.truth = truth.tolist()
            report.errors = errors[i]
            report.q_rmse, *report.attempt_rmse = q[i]
            report.err_avg = err_avg[i].item()
            report.err_std = err_std[i].item()
    return [report for report, _, _ in forecasts]


@dataclass
class ReplayResult:
    reports: list[EpochReport]
    summary: dict
    halted: bool


def run_replay(
    ptog: Ptog,
    config: "RunConfig",
    epochs: Optional[Sequence[EpochPoint]] = None,
) -> ReplayResult:
    """Plan, forecast, score and fold `epochs`; by default every epoch with
    `config.min_history` prior runs, chronologically.

    The plan, made before any forecast, holds each epoch's window and target
    as prepared vertices, every series they read filtered and decimated in
    one batch per sample rate and encoded by one `codec.encode_many` pass,
    under `mock_noise` every attempt's seed hashed in one pass, and each
    epoch's `_request` (an epoch without history raises NoHistory here).
    Epochs are forecast and scored in chunks: one `AttemptPool` serves every
    `llm_http` attempt of the replay, and a chunk's attempts are all queued
    on it before the chunk's first epoch runs. `run_epoch`, called through
    the module global so that a wrapper set on it sees every epoch, turns
    each epoch into its record, failed or not; `_score` scores each chunk in
    batches, and the fold takes decisions and health in epoch order. Failed
    epochs are recorded and the replay goes on; they, and epochs without
    ground truth, add 0 to the fold. With config.halt_on_stop the fold stops
    at the first Stop decision, emulating a live control loop, and each
    chunk is one epoch, so that none past the Stop is forecast or paid for;
    otherwise the one chunk is the whole plan.
    """
    if epochs is None:
        epochs = enumerate_epochs(ptog, config.min_history)
    windows = [extract_window(ptog, e, config.history_depth) for e in epochs]
    targets = [ptog.series.get(e) for e in epochs]
    table = _prepare((s for w, t in zip(windows, targets) for s in (*w, t)), config)
    windows = [tuple(table[s.run, s.state] for s in w) for w in windows]
    targets = [None if t is None else table[t.run, t.state] for t in targets]
    if config.backend.kind == "mock_noise":
        keys = [(e.run.index, e.state.index) for e in epochs]
        seeds = noise_seeds(config.backend.rng_seed, keys, config.ensemble.attempts)
    else:
        seeds = [None] * len(epochs)
    plan = [(e, w, t, _request(w, t, s, config)) for e, w, t, s in zip(epochs, windows, targets, seeds)]
    # a halting replay forecasts one epoch at a time, so none past the Stop is
    # forecast (or, under llm_http, paid for); any other scores all at once
    size = 1 if config.halt_on_stop else max(len(plan), 1)
    with AttemptPool(config.backend) as pool:
        chunks = (_score(_forecast(plan[i:i + size], config, pool)) for i in range(0, len(plan), size))
        reports, halted = _fold(chain.from_iterable(chunks), config)
    return ReplayResult(reports, _build_summary(ptog, reports, halted), halted)


def _fold(scored: Iterable[EpochReport], config: "RunConfig") -> tuple[list[EpochReport], bool]:
    """Decide and fold the scored records in epoch order; under
    halt_on_stop, stop after the first Stop. Returns the folded records and
    whether they halted."""
    reports: list[EpochReport] = []
    cumulative = 0.0
    current_run = None
    for report in scored:
        if config.health_scope == "run" and report.run != current_run:
            cumulative = 0.0
            current_run = report.run
        if report.q_rmse is not None:
            report.decision = decide(report.q_rmse, config.thresholds).label
        verdict = accumulate_health(cumulative, report.q_rmse or 0.0, config.thresholds)
        cumulative = report.cumulative_rmse = verdict.cumulative
        report.health = verdict.value
        reports.append(report)
        if config.halt_on_stop and report.decision == ControlDecision.STOP.label:
            return reports, True
    return reports, False


def _build_summary(ptog: Ptog, reports: list[EpochReport], halted: bool) -> dict:
    by_run: dict[int, list[EpochReport]] = {}
    for r in reports:
        by_run.setdefault(r.run, []).append(r)
    per_run = []
    for run in ptog.runs:
        run_reports = by_run.get(run.index)
        if not run_reports:
            continue
        pooled = [r.errors for r in run_reports if r.errors is not None]
        err_avg, err_std = error_stats(np.concatenate(pooled)) if pooled else (None, None)
        q_values = [r.q_rmse for r in run_reports if r.q_rmse is not None]
        per_run.append(
            {
                "run": run.index,
                "flank_wear_mm": ptog.run_metadata.get(run, {}).get("flank_wear_mm"),
                "err_avg": err_avg,
                "err_std": err_std,
                "mean_q_rmse": float(np.mean(q_values)) if q_values else None,
                "epochs": len(run_reports),
            }
        )
    evaluated = [r for r in reports if r.q_rmse is not None]
    session = {
        "epochs": len(reports),
        "evaluated": len(evaluated),
        "failed": sum(1 for r in reports if "epoch_failed" in r.flags),
        "avg_rmse": float(np.mean([r.q_rmse for r in evaluated])) if evaluated else None,
        "final_cumulative_rmse": reports[-1].cumulative_rmse if reports else 0.0,
        "health": reports[-1].health if reports else "Pass",
        "halted": halted,
    }
    return {"per_run": per_run, "session": session}
