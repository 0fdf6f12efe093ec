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
from .ensemble import PredictionMatrix, aggregate, error_stats, rmse
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
    are set by the replay loop's health fold; a bare `run_epoch` leaves them None.
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
    ptog: Ptog,
    epoch: EpochPoint,
    config: "RunConfig",
    reproducible: bool = False,
    prepared: Optional[dict] = None,
    window: Optional[tuple[MeasurementSeries, ...]] = None,
    seeds: Optional[np.ndarray] = None,
) -> EpochReport:
    """Execute the full pipeline for one epoch.

    Extract the window, preprocess each history series, concatenate oldest
    first, encode, run the forecast ensemble, aggregate, then score against
    the identically preprocessed ground truth when the graph carries it. The
    target run's own series is consulted only after the forecast is fixed
    (except for the oracle backend, which is defined to receive it). Health is
    not computed here: it is a fold over epochs, owned by `run_replay`.

    `prepared` (every series the epoch reads, prepared), `window` and
    `seeds` (the epoch's `mock_noise` seed rows) come from `run_replay`; a
    bare call makes its own.

    Raises NoHistory, AllAttemptsFailed, and a CodecError when a window or
    target vertex cannot be encoded; the replay loop records the latter two
    as a failed epoch and continues.
    """
    start = time.perf_counter()
    if window is None:
        window = extract_window(ptog, epoch, config.history_depth)
    target = ptog.get_series(epoch.run, epoch.state)
    table = _prepare((*window, target), config) if prepared is None else prepared
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
    if seeds is None:
        seeds = _noise_seeds([epoch], config)[0]
    inputs = EnsembleInputs(last_history=history[-1].values, seeds=seeds, truth=truth)
    attempts, rows = forecast_ensemble(config.backend, request, inputs)
    matrix = PredictionMatrix(rows)
    estimate = aggregate(matrix)
    if matrix.attempts_used < len(attempts):
        flags.append("failed_attempts")

    if not oracle:
        truth = _truth(table, target, config.encoding)
    if truth is not None:
        n = min(len(truth), matrix.horizon)
        if len(truth) != matrix.horizon:
            flags.append("length_truncated")
        truth = truth[:n]
        # one difference array: row 0 is the median's error, then one row per attempt
        diff = truth - np.vstack((estimate.median[:n], matrix.rows[:, :n]))
        q, *attempt_rmse = rmse(diff).tolist()
        errors = diff[0].copy()  # the report keeps it; a view would keep all of diff
        err_avg, err_std = error_stats(errors)
        decision = decide(q, config.thresholds).label
        truth = truth.tolist()
    else:
        flags.append("no_ground_truth")
        q = err_avg = err_std = attempt_rmse = errors = None
        decision = NO_ACTION

    elapsed_ms = 0.0 if reproducible else (time.perf_counter() - start) * 1000.0
    return EpochReport(
        run=epoch.run.index,
        state=epoch.state.label,
        history_runs=[s.run.index for s in window],
        horizon=horizon,
        attempts_used=matrix.attempts_used,
        median=estimate.median.tolist(),
        sd=estimate.sd.tolist(),
        truth=truth,
        q_rmse=q,
        err_avg=err_avg,
        err_std=err_std,
        attempt_rmse=attempt_rmse,
        decision=decision,
        flags=flags,
        timing=elapsed_ms,
        downsample_factor=config.downsample.factor_for(window[-1].sample_rate_hz),
        errors=errors,
    )


@dataclass
class ReplayResult:
    reports: list[EpochReport]
    summary: dict
    halted: bool


def _noise_seeds(epochs: list[EpochPoint], config: "RunConfig") -> Sequence[Optional[np.ndarray]]:
    """Each epoch's `mock_noise` seed rows, every attempt of every epoch hashed
    at once; None for each epoch under the other backends."""
    if config.backend.kind != "mock_noise":
        return [None] * len(epochs)
    keys = [(e.run.index, e.state.index) for e in epochs]
    return noise_seeds(config.backend.rng_seed, keys, config.ensemble.attempts)


def run_replay(
    ptog: Ptog,
    config: "RunConfig",
    reproducible: bool = False,
) -> ReplayResult:
    """Run every epoch in chronological order and fold health sequentially.

    Before the first epoch, every series the epochs read is filtered and
    decimated in one batch per sample rate, and under `mock_noise` every
    attempt's seed is hashed in one pass; each vertex is encoded at its first
    use. Failed epochs (every attempt failed, or a window or target vertex
    that cannot be encoded) are recorded and the loop continues; they, and
    epochs without ground truth, add 0 to the fold.
    With config.halt_on_stop the loop stops at the first Stop decision,
    emulating a live control loop.
    """
    epochs = enumerate_epochs(ptog, config.min_history)
    # enumerate_epochs keeps only epochs with history, so no window is empty
    windows = [extract_window(ptog, e, config.history_depth) for e in epochs]
    targets = (ptog.get_series(e.run, e.state) for e in epochs)
    prepared = _prepare((s for w, t in zip(windows, targets) for s in (*w, t)), config)
    seeds = _noise_seeds(epochs, config)
    reports: list[EpochReport] = []
    cumulative = 0.0
    current_run = None
    halted = False
    for epoch, window, epoch_seeds in zip(epochs, windows, seeds):
        if config.health_scope == "run" and epoch.run.index != current_run:
            cumulative = 0.0
            current_run = epoch.run.index
        try:
            report = run_epoch(ptog, epoch, config, reproducible, prepared, window, epoch_seeds)
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
    per_run = []
    for run in ptog.runs:
        run_reports = [r for r in reports if r.run == run.index]
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
