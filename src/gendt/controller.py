"""Feedback decisions and the per-epoch forecast pipeline.

Per-epoch control is a three-level policy on the forecast error; production
health folds epoch errors into a cumulative total checked against a budget.
"""

from __future__ import annotations

import enum
import math
import time
from copy import copy
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from . import codec, dsp
from .ensemble import aggregate, error_stats, rmse
from .errors import GendtError
from .forecast import (
    AllAttemptsFailed,
    EnsembleInputs,
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


class NonFiniteQ(ControlError):
    """The quantity of interest is NaN, infinite, or negative."""


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
        raise NonFiniteQ(f"quantity of interest must be finite and >= 0, got {q!r}")
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

    The defaults are a failed epoch's record. `cumulative_rmse` and `health`
    are set by the replay loop's health fold, not by `run_epoch`.
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
        return {f.name: copy(getattr(self, f.name)) for f in fields(self) if f.name != "errors"}


@dataclass(frozen=True)
class PreparedVertex:
    """One vertex's series after filter and decimate; its wire text is encoded
    on first use, so an encode error surfaces at the first epoch that reads it."""

    values: np.ndarray
    encoding: codec.EncodingSpec

    @cached_property
    def text(self) -> str:
        return codec.encode(self.values.tolist(), self.encoding).text


def _prepare(series: Iterable[Optional[MeasurementSeries]], config: "RunConfig") -> dict:
    """A table of prepared vertices keyed by (run, state): the given series
    (None entries skipped), filtered and decimated in one batch per sample rate."""
    todo = {(s.run, s.state): s for s in series if s is not None}
    values = dsp.preprocess_many(list(todo.values()), config.filter, config.downsample)
    return {key: PreparedVertex(v, config.encoding) for key, v in zip(todo, values)}


def _truth(table: dict, target: Optional[MeasurementSeries], spec: codec.EncodingSpec):
    """The target's decoded wire text, so truth and forecast compare like with like."""
    if target is None:
        return None
    text = table[(target.run, target.state)].text
    return np.array([float(t) for t in text.split(spec.separator)]) * spec.scale


def run_epoch(
    epoch: EpochPoint,
    window: tuple[MeasurementSeries, ...],
    target: Optional[MeasurementSeries],
    table: dict,
    seeds: Optional[np.ndarray],
    config: "RunConfig",
) -> EpochReport:
    """Forecast and score one epoch whose inputs `run_replay` planned.

    `window` is the epoch's history, oldest first; `target` is its own series,
    None when the graph carries none; `table` holds every one of them
    prepared; `seeds` is the epoch's `mock_noise` seed rows (None under the
    other backends). Encode the history, run the forecast ensemble,
    aggregate, then score against the identically prepared ground truth. The
    target is consulted only after the forecast is fixed (except for the
    oracle backend, which is defined to receive it). Health is not computed
    here: it is a fold over epochs, owned by `run_replay`.

    Raises AllAttemptsFailed, and a CodecError when a window or target vertex
    cannot be encoded; the replay loop records both as a failed epoch.
    """
    start = time.perf_counter()
    flags = ["short_history"] if len(window) < config.history_depth else []

    history = [table[(s.run, s.state)] for s in window]
    horizon = len(history[-1].values)
    # the join of per-vertex encodings is the encoding of the concatenation
    sensor_text = config.encoding.separator.join(v.text for v in history)
    prompt = codec.build_prompt(sensor_text, config.prompt_template)
    request = ForecastRequest(
        prompt=prompt,
        temperature=config.resolved_temperature(),
        top_p=config.ensemble.top_p,
        attempts=config.ensemble.attempts,
        horizon=horizon,
        encoding=config.encoding,
    )

    oracle = config.backend.kind == "oracle"
    truth = _truth(table, target, config.encoding) if oracle else None
    inputs = EnsembleInputs(last_history=history[-1].values, seeds=seeds, truth=truth)
    attempts, rows = forecast_ensemble(config.backend, request, inputs)
    estimate = aggregate(rows)
    if len(rows) < len(attempts):
        flags.append("failed_attempts")

    if not oracle:
        truth = _truth(table, target, config.encoding)
    if truth is not None:
        n = min(len(truth), horizon)
        if len(truth) != horizon:
            flags.append("length_truncated")
        truth = truth[:n]
        # one difference array: row 0 is the median's error, then one row per attempt
        diff = truth - np.vstack((estimate.median[:n], rows[:, :n]))
        q, *attempt_rmse = rmse(diff).tolist()
        errors = diff[0].copy()  # the report keeps it; a view would keep all of diff
        err_avg, err_std = error_stats(errors)
        decision = decide(q, config.thresholds).label
        truth = truth.tolist()
    else:
        flags.append("no_ground_truth")
        q = err_avg = err_std = attempt_rmse = errors = None
        decision = NO_ACTION

    return EpochReport(
        run=epoch.run.index,
        state=epoch.state.label,
        history_runs=[s.run.index for s in window],
        horizon=horizon,
        attempts_used=len(rows),
        median=estimate.median.tolist(),
        sd=estimate.sd.tolist(),
        truth=truth,
        q_rmse=q,
        err_avg=err_avg,
        err_std=err_std,
        attempt_rmse=attempt_rmse,
        decision=decision,
        flags=flags,
        timing=(time.perf_counter() - start) * 1000.0,
        downsample_factor=config.downsample.factor_for(window[-1].sample_rate_hz),
        errors=errors,
    )


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
    """Plan and run `epochs` in order and fold health sequentially; by
    default every epoch with `config.min_history` prior runs, chronologically.

    The plan is made before the first epoch: each epoch's window and target,
    every series they read filtered and decimated in one batch per sample
    rate, and under `mock_noise` every attempt's seed hashed in one pass;
    each vertex is encoded at its first use. An epoch without history raises
    NoHistory before any epoch runs. Failed epochs (every attempt failed, or
    a window or target vertex that cannot be encoded) are recorded and the
    loop continues; they, and epochs without ground truth, add 0 to the fold.
    With config.halt_on_stop the loop stops at the first Stop decision,
    emulating a live control loop.
    """
    if epochs is None:
        epochs = enumerate_epochs(ptog, config.min_history)
    windows = [extract_window(ptog, e, config.history_depth) for e in epochs]
    targets = [ptog.get_series(e.run, e.state) for e in epochs]
    table = _prepare((s for w, t in zip(windows, targets) for s in (*w, t)), config)
    if config.backend.kind == "mock_noise":
        keys = [(e.run.index, e.state.index) for e in epochs]
        seeds = noise_seeds(config.backend.rng_seed, keys, config.ensemble.attempts)
    else:
        seeds = [None] * len(epochs)
    reports: list[EpochReport] = []
    cumulative = 0.0
    current_run = None
    halted = False
    for epoch, window, target, epoch_seeds in zip(epochs, windows, targets, seeds):
        if config.health_scope == "run" and epoch.run.index != current_run:
            cumulative = 0.0
            current_run = epoch.run.index
        try:
            # through the module global, so a wrapper set on it sees every epoch
            report = run_epoch(epoch, window, target, table, epoch_seeds, config)
        except (AllAttemptsFailed, codec.CodecError) as exc:
            report = EpochReport(epoch.run.index, epoch.state.label,
                                 flags=["epoch_failed", type(exc).__name__])
        verdict = accumulate_health(cumulative, report.q_rmse or 0.0, config.thresholds)
        cumulative = report.cumulative_rmse = verdict.cumulative
        report.health = verdict.value
        reports.append(report)
        if config.halt_on_stop and report.decision == ControlDecision.STOP.label:
            halted = True
            break
    return ReplayResult(reports, _build_summary(ptog, reports, halted), halted)


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
