"""A replay run one epoch at a time from the public layers, each on its own
inputs: one series filtered, one vertex encoded, one ensemble run and scored
per epoch. It is the oracle that `controller.run_replay`, and every stage it
batches across epochs, is checked against; it is slow, so keep its graphs small.
"""

from __future__ import annotations

import numpy as np

from gendt import codec, dsp
from gendt.controller import EpochReport, ReplayResult, accumulate_health, decide
from gendt.ensemble import aggregate, error_stats, rmse
from gendt.forecast import AllAttemptsFailed, ForecastRequest, forecast_ensemble, noise_seeds
from gendt.windowing import enumerate_epochs, extract_window


def reference_epoch(ptog, epoch, config) -> EpochReport:
    """The epoch's record before the fold: its forecast, truth and scores."""
    spec, kind, attempts = config.encoding, config.backend.kind, config.ensemble.attempts
    window = extract_window(ptog, epoch, config.history_depth)
    values = [dsp.preprocess(s, config.filter, config.downsample) for s in window]
    target = ptog.series.get(epoch)
    seeds = None
    if kind == "mock_noise":
        key = (epoch.run.index, epoch.state.index)
        seeds = noise_seeds(config.backend.rng_seed, [key], attempts)[0]

    def quantized_target():  # the target as its wire text reads back; None without one
        if target is None:
            return None
        return np.array(codec.quantize(dsp.preprocess(target, config.filter, config.downsample), spec))

    try:
        text = spec.separator.join(codec.encode(v, spec).text for v in values)
        truth = quantized_target() if kind == "oracle" else None
        request = ForecastRequest(codec.build_prompt(text, config.prompt_template),
                                  config.resolved_temperature(), config.ensemble.top_p, attempts,
                                  len(values[-1]), spec, values[-1], seeds, truth)
        _, rows = forecast_ensemble(config.backend, request)
        truth = quantized_target()  # after the forecast, which stays blind to it
    except (AllAttemptsFailed, codec.CodecError) as exc:
        return EpochReport(epoch.run.index, epoch.state.label, flags=["epoch_failed", type(exc).__name__])
    horizon = len(values[-1])
    flags = ["short_history"] if len(window) < config.history_depth else []
    if len(rows) < attempts:
        flags.append("failed_attempts")
    if truth is None:
        flags.append("no_ground_truth")
    elif len(truth) != horizon:
        flags.append("length_truncated")
    estimate = aggregate(rows)
    report = EpochReport(epoch.run.index, epoch.state.label, [s.run.index for s in window], horizon,
                         len(rows), estimate.median.tolist(), estimate.sd.tolist(), flags=flags,
                         downsample_factor=config.downsample.factor_for(window[-1].sample_rate_hz))
    if truth is not None:
        truth = truth[:horizon]
        report.truth = truth.tolist()
        report.errors = truth - estimate.median[:len(truth)]
        report.q_rmse = rmse(report.errors)
        report.attempt_rmse = [rmse(truth - row[:len(truth)]) for row in rows]
        report.err_avg, report.err_std = error_stats(report.errors)
    return report


def reference_replay(ptog, config) -> ReplayResult:
    """Every epoch of `ptog`, recorded, decided and folded in order."""
    reports, cumulative, halted = [], 0.0, False
    for epoch in enumerate_epochs(ptog, config.min_history):
        report = reference_epoch(ptog, epoch, config)
        if config.health_scope == "run" and reports and reports[-1].run != report.run:
            cumulative = 0.0
        if report.q_rmse is not None:
            report.decision = decide(report.q_rmse, config.thresholds).label
        verdict = accumulate_health(cumulative, report.q_rmse or 0.0, config.thresholds)
        cumulative = report.cumulative_rmse = verdict.cumulative
        report.health = verdict.value
        reports.append(report)
        if config.halt_on_stop and report.decision == "Stop":
            halted = True
            break
    per_run = []
    for run in ptog.runs:
        mine = [r for r in reports if r.run == run.index]
        pooled = [e for r in mine if r.errors is not None for e in r.errors.tolist()]
        q = [r.q_rmse for r in mine if r.q_rmse is not None]
        if mine:
            err_avg, err_std = error_stats(pooled) if pooled else (None, None)
            wear = ptog.run_metadata.get(run, {}).get("flank_wear_mm")
            per_run.append({"run": run.index, "flank_wear_mm": wear, "err_avg": err_avg, "err_std": err_std,
                            "mean_q_rmse": float(np.mean(q)) if q else None, "epochs": len(mine)})
    q = [r.q_rmse for r in reports if r.q_rmse is not None]
    session = {"epochs": len(reports), "evaluated": len(q),
               "failed": sum("epoch_failed" in r.flags for r in reports),
               "avg_rmse": float(np.mean(q)) if q else None,
               "final_cumulative_rmse": cumulative, "health": reports[-1].health if reports else "Pass",
               "halted": halted}
    return ReplayResult(reports, {"per_run": per_run, "session": session}, halted)
