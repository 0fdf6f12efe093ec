"""Derived report views: CSV layout, SVG structure, box-plot statistics."""

from __future__ import annotations

import pytest

from conftest import make_config
from gendt.controller import run_replay
from gendt.report import (
    ReportError,
    check_document,
    run_box_stats,
    write_boxplot_svg,
    write_overlay_svg,
    write_run_table_csv,
)


def percentile_oracle(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, matching the default
    percentile definition."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@pytest.fixture(scope="module")
def mock_report(tmp_path_factory):
    from gendt.dataset import ingest_fixture, write_synthetic_fixture

    root = tmp_path_factory.mktemp("report")
    ptog = ingest_fixture(write_synthetic_fixture(root / "fixture"))
    result = run_replay(ptog, make_config("mock_noise"), reproducible=True)
    return {
        "schema_version": 1,
        "config": make_config("mock_noise").to_dict(),
        "epochs": [r.to_dict() for r in result.reports],
        "summary": result.summary,
        "halted": result.halted,
    }


def test_box_bounds_equal_percentiles(mock_report):
    stats = run_box_stats(mock_report)
    assert [s["run"] for s in stats] == list(range(5, 15))
    pools = {}
    for ep in mock_report["epochs"]:
        pools.setdefault(ep["run"], []).extend(ep["attempt_rmse"])
    for s in stats:
        pool = pools[s["run"]]
        assert s["count"] == len(pool) == 30  # 3 states x 10 attempts
        assert s["q1"] == pytest.approx(percentile_oracle(pool, 25), abs=1e-12)
        assert s["median"] == pytest.approx(percentile_oracle(pool, 50), abs=1e-12)
        assert s["q3"] == pytest.approx(percentile_oracle(pool, 75), abs=1e-12)
        assert s["lo"] == min(pool) and s["hi"] == max(pool)


def test_csv_row_count_matches_runs_with_epochs(mock_report, tmp_path):
    path = write_run_table_csv(mock_report, tmp_path / "table.csv")
    rows = path.read_text().strip().splitlines()
    assert len(rows) - 1 == len(mock_report["summary"]["per_run"])


def test_overlay_svg_contains_band_truth_median(mock_report, tmp_path):
    epoch = mock_report["epochs"][0]
    path = write_overlay_svg(epoch, tmp_path / "overlay.svg")
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") >= 2  # truth + median
    assert "<polygon" in svg  # the +/- SD band


def test_overlay_oracle_median_coincides_with_truth(tmp_path, milling_ptog, oracle_config):
    result = run_replay(milling_ptog, oracle_config, reproducible=True)
    epoch = result.reports[0].to_dict()
    assert epoch["median"] == epoch["truth"][: len(epoch["median"])]
    write_overlay_svg(epoch, tmp_path / "oracle_overlay.svg")


def test_boxplot_svg_has_wear_overlay(mock_report, tmp_path):
    path = write_boxplot_svg(mock_report, tmp_path / "box.svg")
    svg = path.read_text()
    assert svg.count("<rect") >= 10  # one box per run plus chrome
    assert "flank wear" in svg


def test_boxplot_requires_attempt_rmse(tmp_path):
    with pytest.raises(ReportError):
        write_boxplot_svg({"epochs": [], "summary": {"per_run": []}}, tmp_path / "x.svg")


def test_malformed_report_rejected(mock_report):
    with pytest.raises(ReportError):
        check_document({"nope": 1})
    assert check_document(mock_report) is mock_report
