"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The final live-endpoint
check needs network access and a credential and is skipped unless
GENDT_LIVE=1 is set; everything else is deterministic and gating.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import lowpass, make_config, make_random_ptog
from gendt.cli import EXIT_OK, main
from gendt.codec import DecodeFailure, EncodingSpec, decode, encode
from gendt.config import save_config
from gendt.controller import ControlThresholds, accumulate_health, decide, run_replay
from gendt.dataset import interpolate_wear
from gendt.dsp import FilterSpec
from gendt.ensemble import PredictionMatrix, aggregate, error_stats, rmse
from gendt.windowing import EpochPoint, NoHistory, enumerate_epochs, extract_window


def _pass(name: str) -> None:
    print(f"[PASS] {name}")


# --------------------------------------------------------------- criterion 1


def test_window_extraction_oracle_equivalence():
    """1,000 randomized graphs: extraction matches brute force exactly, < 5 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        ptog = make_random_ptog(rng, max_runs=12, max_states=5)
        depth = int(rng.integers(1, 6))
        for run in ptog.runs:
            for state in ptog.states:
                if (run, state) not in ptog.vertices:
                    continue
                epoch = EpochPoint(run, state)
                expected = sorted(
                    r.index for r in ptog.runs if r < run and (r, state) in ptog.series
                )[-depth:]
                if not expected:
                    with pytest.raises(NoHistory):
                        extract_window(ptog, epoch, depth)
                else:
                    window = extract_window(ptog, epoch, depth)
                    assert [s.run.index for s in window] == expected
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _pass(f"window extraction == brute-force oracle on 1000 graphs "
          f"({checked} windows, {elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 2


def test_milling_epoch_structure(milling_ptog):
    """min_history 4 on the 14-run fixture: exactly runs 5-14 x 3 states."""
    epochs = enumerate_epochs(milling_ptog, min_history=4)
    expected = [(r, s) for r in range(5, 15) for s in ("P1", "P2", "P3")]
    assert [(e.run.index, e.state.label) for e in epochs] == expected
    result = run_replay(milling_ptog, make_config("persistence"))
    assert [(r.run, r.state) for r in result.reports] == expected
    _pass("fixture epochs are exactly runs 5-14 x {P1,P2,P3} (30), replay order matches")


# --------------------------------------------------------------- criterion 3


def test_filter_analytics():
    """Order-4 gains against |H| = 1/sqrt(1+(f/fc)^(2n)), < 1 s."""
    start = time.perf_counter()
    fs, fc = 250.0, 8.0
    spec = FilterSpec(fc, order=4)

    y = lowpass([1.0] * 4000, spec, fs)
    assert abs(y[-1] - 1.0) < 1e-6

    def steady_gain_db(freq: float) -> float:
        period = fs / freq
        n_settle, n_measure = int(40 * period), int(32 * period)
        t = np.arange(n_settle + n_measure) / fs
        out = np.asarray(lowpass(np.sin(2 * np.pi * freq * t).tolist(), spec, fs))
        tail = out[n_settle:]
        return 20 * math.log10(math.sqrt(2.0) * float(np.sqrt(np.mean(tail**2))))

    at_cutoff = steady_gain_db(fc)
    at_double = steady_gain_db(2 * fc)
    assert at_cutoff == pytest.approx(-3.01, abs=0.3)
    assert at_double == pytest.approx(-24.1, abs=0.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass(f"filter analytics: DC 1.0 +/- 1e-6, {at_cutoff:.2f} dB at fc, "
          f"{at_double:.2f} dB at 2fc ({elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 4


def _exact_round2(value: float) -> float:
    f = Fraction(value) * 100
    cents = math.floor(f + Fraction(1, 2)) if f >= 0 else -math.floor(-f + Fraction(1, 2))
    return cents / 100


def test_codec_round_trip_and_fuzz():
    """10,000 values in [0, 10] A round-trip to exact 2-decimal rounding;
    10,000 arbitrary byte strings decode without a single abort."""
    spec = EncodingSpec()
    rng = random.Random(777)
    values = [rng.uniform(0.0, 10.0) for _ in range(10_000)]
    decoded = decode(encode(values, spec).text, spec, len(values))
    assert isinstance(decoded, list)
    for v, d in zip(values, decoded):
        assert d == _exact_round2(v)

    for _ in range(10_000):
        n = rng.randrange(0, 80)
        blob = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        result = decode(blob, spec, 8)
        assert isinstance(result, (list, DecodeFailure))
    _pass("codec: 10k values round-trip exactly at 2 decimals; 10k-string fuzz, zero aborts")


# --------------------------------------------------------------- criterion 5


def test_median_and_stat_oracles():
    """500 random matrices vs per-column sort oracle; error_stats and rmse vs
    direct formulas at 1e-12; permutation invariance on every case."""
    rng = np.random.default_rng(31)
    for _ in range(500):
        k = int(rng.integers(1, 12))
        width = int(rng.integers(1, 30))
        rows = tuple(tuple(rng.normal(0, 5, width).tolist()) for _ in range(k))
        matrix = PredictionMatrix(rows)
        est = aggregate(matrix)

        for j in range(width):
            column = sorted(row[j] for row in rows)
            med = column[k // 2] if k % 2 else (column[k // 2 - 1] + column[k // 2]) / 2
            assert est.median[j] == med

        perm = rng.permutation(k)
        permuted = aggregate(PredictionMatrix(tuple(rows[i] for i in perm)))
        assert permuted.median.tolist() == est.median.tolist()
        assert permuted.sd.tolist() == est.sd.tolist()

        truth = rng.normal(0, 5, width).tolist()
        err_avg, err_std = error_stats(truth - est.median)
        e = [abs(t - m) for t, m in zip(truth, est.median)]
        mean = math.fsum(e) / len(e)
        assert err_avg == pytest.approx(mean, abs=1e-12)
        assert err_std == pytest.approx(
            math.sqrt(math.fsum((x - mean) ** 2 for x in e) / len(e)), abs=1e-12
        )
        assert rmse(truth - est.median) == pytest.approx(
            math.sqrt(math.fsum((t - m) ** 2 for t, m in zip(truth, est.median)) / width),
            abs=1e-12,
        )
    _pass("median/stat oracles: 500 matrices, sort + direct-formula agreement, "
          "permutation invariant")


# --------------------------------------------------------------- criterion 6


def test_control_policy_boundaries():
    th = ControlThresholds(t_low=0.5, t_high=1.5, t_health=15.0)
    eps = 1e-9
    outcomes = [
        decide(q, th).label
        for q in (0.0, th.t_low - eps, th.t_low, th.t_high, th.t_high + eps)
    ]
    assert outcomes == ["Continue", "Continue", "Warning", "Warning", "Stop"]
    assert accumulate_health(0.0, th.t_health, th).value == "Pass"  # boundary inclusive
    assert accumulate_health(0.0, th.t_health + eps, th).value == "Fail"
    _pass("control policy: boundary decisions and strict health inequality")


# --------------------------------------------------------------- criterion 7


def test_end_to_end_zero_error_and_persistence(milling_ptog):
    oracle = run_replay(milling_ptog, make_config("oracle"))
    assert len(oracle.reports) == 30
    assert all(r.q_rmse == 0.0 for r in oracle.reports)
    assert oracle.summary["session"]["health"] == "Pass"

    start = time.perf_counter()
    persistence = run_replay(milling_ptog, make_config("persistence"))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert all(math.isfinite(r.q_rmse) for r in persistence.reports)
    table = persistence.summary["per_run"]
    assert [set(row) >= {"run", "flank_wear_mm", "err_avg", "err_std"} for row in table]
    assert [row["run"] for row in table] == list(range(5, 15))
    _pass(f"end to end: oracle q_rmse == 0 on all 30 epochs, health Pass; "
          f"persistence replay {elapsed:.2f}s with per-run error table")


# --------------------------------------------------------------- criterion 8


def test_reproducible_replays_byte_identical(tmp_path, milling_ptog):
    from gendt.ptog import save_ptog

    ptog_path = tmp_path / "ptog.json"
    save_ptog(milling_ptog, ptog_path)
    config_path = tmp_path / "cfg.json"
    save_config(make_config("mock_noise"), config_path)
    outputs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(
            ["replay", "--ptog", str(ptog_path), "--config", str(config_path),
             "--reproducible", "--out", str(out)]
        )
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _pass("determinism: two --reproducible mock_noise seed-42 replays byte-identical")


# --------------------------------------------------------------- criterion 9


def test_wear_interpolation_published_rows():
    records = {r.run: r for r in interpolate_wear([(1, 0.0), (4, 0.11)], runs=[2, 3])}
    assert records[2].flank_wear_mm == pytest.approx(0.0367, abs=0.0001)
    assert records[3].flank_wear_mm == pytest.approx(0.0734, abs=0.0002)
    _pass("wear interpolation: run 2 -> 0.0367, run 3 -> 0.0734 from (1, 0) and (4, 0.11)")


# ----------------------------------------------------- non-gated live check


@pytest.mark.live
@pytest.mark.skipif(
    not os.environ.get("GENDT_LIVE"),
    reason="live check: set GENDT_LIVE=1, GENDT_API_KEY, GENDT_LIVE_ENDPOINT, "
    "GENDT_LIVE_MODEL, and GENDT_REAL_PTOG (graph built from the real dataset)",
)
def test_live_endpoint_session_rmse(tmp_path):
    """Manual integration: replay the real dataset against a gpt-4-class
    endpoint; the session-average RMSE should land near 0.479 A (+/- 50%)."""
    from gendt.forecast import BackendConfig
    from gendt.ptog import load_ptog

    ptog = load_ptog(os.environ["GENDT_REAL_PTOG"])
    backend = BackendConfig(
        kind="llm_http",
        endpoint=os.environ["GENDT_LIVE_ENDPOINT"],
        model_name=os.environ.get("GENDT_LIVE_MODEL", "gpt-4"),
        max_in_flight=int(os.environ.get("GENDT_LIVE_IN_FLIGHT", "2")),
    )
    config = make_config(backend=backend)
    result = run_replay(ptog, config)
    avg = result.summary["session"]["avg_rmse"]
    (tmp_path / "live_report.json").write_text(
        json.dumps({"epochs": [r.to_dict() for r in result.reports], "summary": result.summary})
    )
    assert avg == pytest.approx(0.479, rel=0.5)
    _pass(f"live endpoint session RMSE {avg:.3f} A within 50% of 0.479 A")
