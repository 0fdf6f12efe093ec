"""Control policy boundaries, health folding, and the epoch pipeline."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from gendt.controller import (
    ControlDecision,
    ControlError,
    ControlThresholds,
    NonFiniteQ,
    _prepare,
    _truth,
    accumulate_health,
    decide,
    run_epoch,
    run_replay,
)
from gendt.ptog import RunId, build_ptog
from gendt.windowing import EpochPoint, NoHistory

TH = ControlThresholds(t_low=0.5, t_high=1.5, t_health=15.0)
EPS = 1e-9


def test_decision_boundaries():
    assert decide(0.0, TH) is ControlDecision.CONTINUE
    assert decide(TH.t_low - EPS, TH) is ControlDecision.CONTINUE
    assert decide(TH.t_low, TH) is ControlDecision.WARNING  # closed band
    assert decide(TH.t_high, TH) is ControlDecision.WARNING
    assert decide(TH.t_high + EPS, TH) is ControlDecision.STOP


def test_decide_monotone():
    rng = np.random.default_rng(3)
    qs = sorted(rng.uniform(0, 3, 200).tolist())
    decisions = [decide(q, TH) for q in qs]
    assert decisions == sorted(decisions)


def test_decide_exhaustive_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(500):
        q = float(rng.uniform(0, 5))
        assert decide(q, TH) in (
            ControlDecision.CONTINUE,
            ControlDecision.WARNING,
            ControlDecision.STOP,
        )


def test_decide_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(NonFiniteQ):
            decide(bad, TH)


def test_health_boundary_is_strict():
    assert accumulate_health(0.0, 0.0, TH).value == "Pass"
    at_budget = accumulate_health(TH.t_health - 1.0, 1.0, TH)
    assert at_budget.cumulative == TH.t_health
    assert at_budget.value == "Pass"  # Fail only strictly above
    over = accumulate_health(TH.t_health, EPS, TH)
    assert over.value == "Fail"


def test_health_fold_equals_direct_sum():
    rng = np.random.default_rng(12)
    qs = rng.uniform(0, 0.3, 40).tolist()
    cumulative = 0.0
    for q in qs:
        cumulative = accumulate_health(cumulative, q, TH).cumulative
    assert cumulative == pytest.approx(math.fsum(qs), abs=1e-12)


def test_thresholds_validation():
    with pytest.raises(ControlError):
        ControlThresholds(0.0, 1.0, 1.0)
    with pytest.raises(ControlError):
        ControlThresholds(2.0, 1.0, 1.0)
    with pytest.raises(ControlError):
        ControlThresholds(0.5, 1.5, 0.0)
    with pytest.raises(ControlError):
        ControlThresholds(0.5, 1.5, float("nan"))
    ControlThresholds(1.0, 1.0, 1.0)  # t_low == t_high is allowed


def test_oracle_epoch_is_exact(milling_ptog, oracle_config):
    epoch = EpochPoint(RunId(7), milling_ptog.state_by_label("P2"))
    report = run_epoch(milling_ptog, epoch, oracle_config)
    assert report.q_rmse == 0.0
    assert report.decision == "Continue"
    assert report.err_avg == 0.0
    assert max(report.sd) < 1e-12  # identical rows; only float mean residue remains


def test_epoch_history_and_horizon(milling_ptog, persistence_config):
    epoch = EpochPoint(RunId(7), milling_ptog.state_by_label("P1"))
    report = run_epoch(milling_ptog, epoch, persistence_config)
    assert report.history_runs == [3, 4, 5, 6]
    assert report.horizon == len(report.median) == len(report.sd)
    assert report.attempts_used == persistence_config.ensemble.attempts
    assert report.q_rmse is not None and math.isfinite(report.q_rmse)


def test_epoch_without_ground_truth_no_action(tmp_path, persistence_config):
    (tmp_path / "s.csv").write_text("\n".join(str(v) for v in range(1, 80)) + "\n")
    entries = [
        {
            "run": r,
            "state_label": "P1",
            "sensor": "spindle_current",
            "unit": "A",
            "sample_rate_hz": 100.0,
            "csv_path": "s.csv" if r < 5 else None,
            "metadata": {},
        }
        for r in range(1, 6)
    ]
    ptog = build_ptog(entries, base_dir=tmp_path)
    epoch = EpochPoint(RunId(5), ptog.state_by_label("P1"))
    report = run_epoch(ptog, epoch, persistence_config)
    assert report.decision == "no action"
    assert report.q_rmse is None
    assert "no_ground_truth" in report.flags
    assert report.median  # the forecast itself still exists


def test_forecast_blind_to_ground_truth(tmp_path, persistence_config, mock_config):
    """Information flow: removing the target's own series must not change the
    forecast (it may only remove the evaluation)."""
    samples = "\n".join(f"{1.0 + 0.01 * i:.4f}" for i in range(200)) + "\n"
    for name in ("a.csv", "b.csv", "c.csv", "d.csv", "e.csv"):
        (tmp_path / name).write_text(samples)

    def graph(with_truth: bool):
        entries = []
        for r, name in enumerate(("a.csv", "b.csv", "c.csv", "d.csv", "e.csv"), start=1):
            entries.append(
                {
                    "run": r,
                    "state_label": "P1",
                    "sensor": "spindle_current",
                    "unit": "A",
                    "sample_rate_hz": 100.0,
                    "csv_path": name if (r < 5 or with_truth) else None,
                    "metadata": {},
                }
            )
        return build_ptog(entries, base_dir=tmp_path)

    for config in (persistence_config, mock_config):
        reports = []
        for with_truth in (True, False):
            ptog = graph(with_truth)
            epoch = EpochPoint(RunId(5), ptog.state_by_label("P1"))
            reports.append(run_epoch(ptog, epoch, config))
        assert reports[0].median == reports[1].median
        assert reports[0].q_rmse is not None and reports[1].q_rmse is None


def test_replay_structure(milling_ptog, persistence_config):
    result = run_replay(milling_ptog, persistence_config)
    assert len(result.reports) == 30
    assert [(r.run, r.state) for r in result.reports] == [
        (run, state) for run in range(5, 15) for state in ("P1", "P2", "P3")
    ]
    assert not result.halted
    assert result.summary["session"]["evaluated"] == 30
    assert all(math.isfinite(r.q_rmse) for r in result.reports)


def test_replay_oracle_all_zero(milling_ptog, oracle_config):
    result = run_replay(milling_ptog, oracle_config)
    assert all(r.q_rmse == 0.0 for r in result.reports)
    assert result.summary["session"]["health"] == "Pass"
    assert result.summary["session"]["final_cumulative_rmse"] == 0.0


def test_replay_cumulative_matches_fold(milling_ptog, persistence_config):
    result = run_replay(milling_ptog, persistence_config)
    total = 0.0
    for r in result.reports:
        total += r.q_rmse
        assert r.cumulative_rmse == pytest.approx(total, abs=1e-12)


def test_replay_health_scope_run(milling_ptog, persistence_config):
    config = replace(persistence_config, health_scope="run")
    result = run_replay(milling_ptog, persistence_config)
    per_run = run_replay(milling_ptog, config)
    for run in range(5, 15):
        runs = [r for r in per_run.reports if r.run == run]
        assert runs[0].cumulative_rmse == pytest.approx(runs[0].q_rmse, abs=1e-12)
    assert per_run.reports[-1].cumulative_rmse < result.reports[-1].cumulative_rmse


def test_replay_halt_on_stop(milling_ptog, persistence_config):
    eager = replace(
        persistence_config,
        thresholds=ControlThresholds(t_low=0.001, t_high=0.002, t_health=15.0),
        halt_on_stop=True,
    )
    result = run_replay(milling_ptog, eager)
    assert result.halted
    assert len(result.reports) < 30
    assert result.reports[-1].decision == "Stop"


def test_replay_summary_table(milling_ptog, persistence_config):
    result = run_replay(milling_ptog, persistence_config)
    per_run = result.summary["per_run"]
    assert [row["run"] for row in per_run] == list(range(5, 15))
    for row in per_run:
        assert row["err_avg"] >= 0 and row["err_std"] >= 0
        assert row["epochs"] == 3
    # wear metadata flows through; measured run 8 has the table value
    run8 = next(row for row in per_run if row["run"] == 8)
    assert run8["flank_wear_mm"] == pytest.approx(0.29)


def test_replay_records_failed_epochs(milling_ptog, oracle_config, monkeypatch):
    """AllAttemptsFailed / NoHistory become failed-epoch reports, not aborts."""
    import gendt.controller as controller_mod

    calls = {"n": 0}
    original = controller_mod.forecast_ensemble

    def flaky(config, request, inputs):
        calls["n"] += 1
        if calls["n"] == 2:
            from gendt.forecast import AllAttemptsFailed

            raise AllAttemptsFailed("synthetic outage")
        return original(config, request, inputs)

    monkeypatch.setattr(controller_mod, "forecast_ensemble", flaky)
    result = run_replay(milling_ptog, oracle_config)
    assert len(result.reports) == 30
    failed = [r for r in result.reports if "epoch_failed" in r.flags]
    assert len(failed) == 1
    assert result.summary["session"]["failed"] == 1
    assert result.summary["session"]["evaluated"] == 29


def test_short_history_flagged(milling_ptog, persistence_config):
    config = replace(persistence_config, min_history=1, history_depth=4)
    result = run_replay(milling_ptog, config)
    by_run = {(r.run, r.state): r for r in result.reports}
    assert "short_history" in by_run[(2, "P1")].flags
    assert "short_history" not in by_run[(7, "P1")].flags


def test_decision_labels():
    assert ControlDecision.CONTINUE.label == "Continue"
    assert ControlDecision.WARNING.label == "Warning"
    assert ControlDecision.STOP.label == "Stop"
    assert ControlDecision.CONTINUE < ControlDecision.WARNING < ControlDecision.STOP


def test_replay_prepares_each_vertex_once(milling_ptog, mock_config, monkeypatch):
    """One replay filters every vertex it touches exactly once, in one batched
    cascade per sample rate before the first epoch, and sharing the prepared
    table across epochs changes no epoch record."""
    import gendt.controller as controller_mod
    from gendt import dsp

    batches, cascades, events = [], [], []
    preprocess_many, cascade, epoch = dsp.preprocess_many, dsp._cascade, controller_mod.run_epoch

    def counting_preprocess_many(series, *args):
        batches.append([(s.run, s.state) for s in series])
        events.append("batch")
        return preprocess_many(series, *args)

    def counting_cascade(x, *args):
        cascades.append(x.shape[1])
        return cascade(x, *args)

    def marking_run_epoch(*args, **kwargs):
        events.append("epoch")
        return epoch(*args, **kwargs)

    monkeypatch.setattr(dsp, "preprocess_many", counting_preprocess_many)
    monkeypatch.setattr(dsp, "_cascade", counting_cascade)
    monkeypatch.setattr(controller_mod, "run_epoch", marking_run_epoch)
    result = run_replay(milling_ptog, mock_config, reproducible=True)
    monkeypatch.setattr(controller_mod, "run_epoch", epoch)
    filtered = [key for batch in batches for key in batch]
    assert len(filtered) == len(set(filtered)) == milling_ptog.n_series
    assert events == ["batch"] + ["epoch"] * len(result.reports)  # all before the first epoch
    assert cascades == [milling_ptog.n_series]  # one sample rate, one cascade

    batches.clear()
    fresh = [
        run_epoch(milling_ptog, EpochPoint(RunId(r.run), milling_ptog.state_by_label(r.state)),
                  mock_config, reproducible=True).to_dict()
        for r in result.reports
    ]
    for shared, alone in zip(result.reports, fresh):
        shared = shared.to_dict()
        for key in ("cumulative_rmse", "health"):  # folded across epochs in the replay
            shared.pop(key)
            assert alone.pop(key) is None
        assert shared == alone
    filtered = [key for batch in batches for key in batch]
    assert len(filtered) > len(set(filtered))  # fresh tables prepare overlapping windows again


@pytest.mark.parametrize(
    "spec", [{}, {"decimals": 3, "separator": ";", "scale": 0.5}, {"decimals": 0, "scale": 4.0}]
)
def test_truth_equals_quantized_target(milling_ptog, persistence_config, spec):
    """The truth read back from the target's wire text is `codec.quantize` of
    its prepared values."""
    from gendt import codec

    config = replace(persistence_config, encoding=codec.EncodingSpec(**spec))
    series = milling_ptog.get_series(7, "P2")
    table = _prepare([series], config)
    truth = _truth(table, series, config.encoding)
    assert truth.tolist() == codec.quantize(table[(series.run, series.state)].values, config.encoding)
