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
    _prepare,
    accumulate_health,
    decide,
    run_replay,
)
from gendt.ptog import MeasurementSeries, Ptog, RunId, SensorId, StateId
from gendt.windowing import EpochPoint, NoHistory

TH = ControlThresholds(t_low=0.5, t_high=1.5, t_health=15.0)
EPS = 1e-9
P1 = StateId(1, "P1")
SENSOR = SensorId("spindle_current", "A")


def one_state_graph(samples, runs, truth_run=None):
    """Runs 1..`runs` of state P1, each carrying `samples`, except that
    `truth_run` is a vertex without a series."""
    series = [MeasurementSeries(RunId(r), P1, SENSOR, 100.0, samples)
              for r in range(1, runs + 1) if r != truth_run]
    empty = [(RunId(truth_run), P1, SENSOR)] if truth_run else []
    return Ptog.from_series(series, empty_vertices=empty)


def replay_one(ptog, epoch, config):
    """The report of a one-epoch replay, as `gendt forecast` runs it."""
    (report,) = run_replay(ptog, config, [epoch]).reports
    return report


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
        with pytest.raises(ControlError, match="^quantity of interest must be finite and >= 0, got "):
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
    report = replay_one(milling_ptog, epoch, oracle_config)
    assert report.q_rmse == 0.0
    assert report.decision == "Continue"
    assert report.err_avg == 0.0
    assert max(report.sd) < 1e-12  # identical rows; only float mean residue remains


def test_epoch_history_and_horizon(milling_ptog, persistence_config):
    epoch = EpochPoint(RunId(7), milling_ptog.state_by_label("P1"))
    report = replay_one(milling_ptog, epoch, persistence_config)
    assert report.history_runs == [3, 4, 5, 6]
    assert report.horizon == len(report.median) == len(report.sd)
    assert report.attempts_used == persistence_config.ensemble.attempts
    assert report.q_rmse is not None and math.isfinite(report.q_rmse)


def test_epoch_without_ground_truth_no_action(persistence_config):
    ptog = one_state_graph([float(v) for v in range(1, 80)], runs=5, truth_run=5)
    epoch = EpochPoint(RunId(5), P1)
    report = replay_one(ptog, epoch, persistence_config)
    assert report.decision == "no action"
    assert report.q_rmse is None
    assert "no_ground_truth" in report.flags
    assert report.median  # the forecast itself still exists


def test_forecast_blind_to_ground_truth(persistence_config, mock_config):
    """Information flow: removing the target's own series must not change the
    forecast (it may only remove the evaluation)."""
    samples = [round(1.0 + 0.01 * i, 4) for i in range(200)]

    for config in (persistence_config, mock_config):
        reports = []
        for with_truth in (True, False):
            ptog = one_state_graph(samples, runs=5, truth_run=None if with_truth else 5)
            epoch = EpochPoint(RunId(5), P1)
            reports.append(replay_one(ptog, epoch, config))
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


def test_replay_halt_on_stop(milling_ptog, persistence_config, monkeypatch):
    """The replay stops at the first Stop and forecasts no epoch past it."""
    import gendt.controller as controller_mod

    forecast = []
    run_epoch = controller_mod.run_epoch
    monkeypatch.setattr(controller_mod, "run_epoch",
                        lambda epoch, *a: forecast.append(epoch) or run_epoch(epoch, *a))
    eager = replace(
        persistence_config,
        thresholds=ControlThresholds(t_low=0.001, t_high=0.002, t_health=15.0),
        halt_on_stop=True,
    )
    result = run_replay(milling_ptog, eager)
    assert result.halted
    assert len(result.reports) < 30
    assert result.reports[-1].decision == "Stop"
    assert len(forecast) == len(result.reports)


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

    def flaky(config, request, pool):
        calls["n"] += 1
        if calls["n"] == 2:
            from gendt.forecast import AllAttemptsFailed

            raise AllAttemptsFailed("synthetic outage")
        return original(config, request, pool)

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
    cascade per sample rate before the first epoch."""
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
    result = run_replay(milling_ptog, mock_config)
    filtered = [key for batch in batches for key in batch]
    assert len(filtered) == len(set(filtered)) == milling_ptog.n_series
    assert events == ["batch"] + ["epoch"] * len(result.reports)  # all before the first epoch
    assert cascades == [milling_ptog.n_series]  # one sample rate, one cascade


def test_replay_of_chosen_epochs_matches_the_full_replay(milling_ptog, mock_config):
    """Epochs replayed on their own, in any order, carry the records they have
    in the full replay; only the health fold and the timing differ."""
    full = run_replay(milling_ptog, mock_config).reports
    chosen = [full[-1], full[0], full[len(full) // 2]]
    epochs = [EpochPoint(RunId(r.run), milling_ptog.state_by_label(r.state)) for r in chosen]
    for alone, shared in zip(run_replay(milling_ptog, mock_config, epochs).reports, chosen):
        alone, shared = alone.to_dict(), shared.to_dict()
        for record in (alone, shared):
            for key in ("cumulative_rmse", "health", "timing"):
                del record[key]
        assert alone == shared


def test_replay_without_epochs_prepares_nothing(milling_ptog, persistence_config):
    """A graph with fewer runs than `min_history` replays no epoch, and the
    one encode pass has no vertex to encode."""
    result = run_replay(milling_ptog, replace(persistence_config, min_history=99))
    assert result.reports == [] and result.summary["session"]["epochs"] == 0


def test_replay_of_an_epoch_without_history_raises(milling_ptog, persistence_config):
    first = EpochPoint(RunId(1), milling_ptog.state_by_label("P1"))
    with pytest.raises(NoHistory):
        run_replay(milling_ptog, persistence_config, [first])


@pytest.mark.parametrize(
    "spec", [{}, {"decimals": 3, "separator": ";", "scale": 0.5}, {"decimals": 0, "scale": 4.0}]
)
def test_truth_equals_quantized_target(milling_ptog, persistence_config, spec):
    """The truth read back from the target's wire text is `codec.quantize` of
    its prepared values."""
    from gendt import codec

    config = replace(persistence_config, encoding=codec.EncodingSpec(**spec))
    series = milling_ptog.series[RunId(7), milling_ptog.state_by_label("P2")]
    (vertex,) = _prepare([series], config).values()
    truth = vertex.wire_or_raise().decoded
    assert truth.tolist() == codec.quantize(vertex.values, config.encoding)


@pytest.mark.parametrize("spec", [{}, {"decimals": 3, "separator": ";", "scale": 0.5}])
def test_truth_from_the_one_pass_is_the_parsed_wire_text(milling_ptog, persistence_config, spec):
    """Each vertex's text, cut from `codec.encode_many`'s one pass over every
    vertex, is its own encoding, and its truth is bit for bit
    float(token) * scale."""
    from gendt import codec

    config = replace(persistence_config, encoding=codec.EncodingSpec(**spec))
    table = _prepare(milling_ptog.series.values(), config)
    sep, scale = config.encoding.separator, config.encoding.scale
    for (run, state), vertex in table.items():
        assert vertex.series is milling_ptog.series[run, state]
        text = codec.encode(vertex.values, config.encoding).text
        assert vertex.result.text == text
        parsed = np.array([float(token) * scale for token in text.split(sep)])
        truth = vertex.wire_or_raise().decoded
        assert truth.tobytes() == parsed.tobytes()


def test_unencodable_vertex_fails_only_its_epochs_in_one_encode_call(
    milling_ptog, persistence_config, monkeypatch
):
    """A replay of a graph with one unencodable vertex calls `codec.encode`
    once, as a clean replay does, and fails exactly the epochs whose window or
    target reads that vertex, each with its own `Overflow`."""
    from gendt import codec

    p2 = milling_ptog.state_by_label("P2")
    bad = milling_ptog.series[RunId(5), p2]
    samples = bad.samples.copy()
    samples[len(samples) // 2] = 1e300
    graph = Ptog.from_series(
        [replace(s, samples=samples) if s is bad else s for s in milling_ptog.series.values()]
    )
    calls = []
    encode = codec.encode
    monkeypatch.setattr(codec, "encode",
                        lambda values, spec: calls.append(len(values)) or encode(values, spec))
    clean = run_replay(milling_ptog, persistence_config).reports
    assert len(calls) == 1
    failed = run_replay(graph, persistence_config).reports
    assert len(calls) == 2 and calls[1] < calls[0]
    reads = [r.state == "P2" and 5 in (r.run, *clean_r.history_runs)
             for r, clean_r in zip(failed, clean)]
    assert sum(reads) > 1
    for report, was, read in zip(failed, clean, reads):
        if read:
            assert report.flags == ["epoch_failed", "Overflow"]
        else:
            assert report.median == was.median and report.truth == was.truth
            assert report.q_rmse == was.q_rmse and report.flags == was.flags
    (vertex,) = _prepare([graph.series[RunId(5), p2]], persistence_config).values()
    raised = []
    for _ in range(2):
        with pytest.raises(codec.Overflow) as error:
            vertex.wire_or_raise()
        raised.append(error.value)
    assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


def test_replay_equals_the_one_epoch_at_a_time_reference():
    """On small drawn graphs and configs, `run_replay` and every stage it
    batches across epochs give the records, summary and halt of the
    reference replay, which runs each epoch alone: every field but `timing`,
    and the errors bit for bit."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from reference import reference_replay

    from gendt.codec import EncodingSpec
    from gendt.config import EnsembleParams, RunConfig
    from gendt.dsp import DownsampleSpec, FilterSpec
    from gendt.forecast import BackendConfig

    states = [StateId(1, "P1"), StateId(2, "P2")]

    @st.composite
    def graphs(draw):
        series, empty = [], []
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))  # the samples, drawn fast
        # few lengths, so that epochs of equal horizon but unequal truth length meet in one replay
        lengths = st.sampled_from(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)))
        for run in map(RunId, range(1, draw(st.integers(3, 8)) + 1)):
            for state in states[:draw(st.integers(1, 2))]:
                what = draw(st.sampled_from(["series"] * 4 + ["series-less", "absent"]))
                if what == "series":
                    samples = rng.normal(0.0, 10.0, draw(lengths)).round(3)
                    series.append(MeasurementSeries(run, state, SENSOR, draw(st.sampled_from([50.0, 200.0])),
                                                    samples))
                elif what == "series-less":
                    empty.append((run, state, SENSOR))
        if series and draw(st.booleans()):  # one sample no wire can carry
            i = draw(st.integers(0, len(series) - 1))
            at = draw(st.integers(0, len(series[i].samples) - 1))
            samples = series[i].samples.copy()
            samples[at] = 1e300
            series[i] = replace(series[i], samples=samples)
        hypothesis.assume(series)
        return Ptog.from_series(series, empty_vertices=empty)

    @st.composite
    def configs(draw):
        t_low = draw(st.sampled_from([0.5, 5.0, 50.0]))
        return RunConfig(
            backend=BackendConfig(kind=draw(st.sampled_from(["mock_noise", "persistence", "oracle"])),
                                  rng_seed=draw(st.integers(0, 2**40)),
                                  noise_sigma=draw(st.sampled_from([0.0, 0.1, 5.0]))),
            thresholds=ControlThresholds(t_low, t_low * draw(st.sampled_from([1, 3])),
                                         draw(st.sampled_from([1.0, 15.0]))),
            filter=FilterSpec(draw(st.sampled_from([3.0, 8.0])), draw(st.integers(1, 4)), draw(st.booleans())),
            downsample=draw(st.sampled_from([DownsampleSpec(factor=1), DownsampleSpec(factor=3),
                                             DownsampleSpec(target_rate_hz=20.0)])),
            encoding=EncodingSpec(draw(st.integers(0, 3)), draw(st.sampled_from([",", ";"])),
                                  draw(st.sampled_from([0.01, 1.0, 4.0, 1e100]))),
            ensemble=EnsembleParams(attempts=draw(st.integers(1, 4))),
            history_depth=draw(st.integers(1, 3)),
            min_history=draw(st.integers(1, 2)),
            halt_on_stop=draw(st.booleans()),
            health_scope=draw(st.sampled_from(["session", "run"])),
        )

    def fields_of(report):
        record = report.to_dict()
        del record["timing"]
        return repr(record), None if report.errors is None else report.errors.tobytes()

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(ptog=graphs(), config=configs())
    def check(ptog, config):
        result, reference = run_replay(ptog, config), reference_replay(ptog, config)
        assert list(map(fields_of, result.reports)) == list(map(fields_of, reference.reports))
        assert repr(result.summary) == repr(reference.summary)
        assert result.halted == reference.halted

    check()
