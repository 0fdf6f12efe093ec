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
    write_report_artifacts,
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
    result = run_replay(ptog, make_config("mock_noise"))
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
    result = run_replay(milling_ptog, oracle_config)
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


def test_svg_text_is_escaped(mock_report, tmp_path):
    """A state label holding markup is written as text: every SVG parses as
    XML, and the overlay title holds the label verbatim."""
    import copy
    import xml.etree.ElementTree as ET

    label = 'P1<svg onload=alert(1)>&"'
    report = copy.deepcopy(mock_report)
    for epoch in report["epochs"]:
        epoch["state"] = epoch["state"].replace("P1", label)
    written = write_report_artifacts(check_document(report), tmp_path)
    svgs = [path for path in written if path.suffix == ".svg"]
    assert len(svgs) == 31  # 30 overlays and the box plot
    for path in svgs:
        ET.parse(path)
    title = ET.parse(tmp_path / f"overlay_run05_{label}.svg").find("{*}text").text
    assert title.startswith(f"run 5 {label}: ")


@pytest.mark.parametrize(
    "median, sd, truth",
    [([1e20] * 3, [0.0] * 3, None), ([9 * 10**307] * 2, [9 * 10**307] * 2, None),
     ([0.99e308] * 3, [0.99e308] * 3, [1.0, 2.0, 3.0]), ([-0.99e308] * 3, [1.0] * 3, [0.99e308] * 3),
     ([1.7e308] * 3, [1.7e308] * 3, [1.0, 2.0, 3.0]), ([-1.7e308] * 3, [1.7e308] * 3, [1.7e308] * 3),
     ([-0.99e308] * 3, [0.99e308] * 3, None)],
    ids=["flat-far-from-zero", "band-beyond-float-range", "band-near-float-max",
         "median-and-truth-near-float-max", "band-at-float-max", "band-and-truth-at-float-max",
         "negative-band-near-float-max"],
)
def test_overlay_of_extreme_values_is_drawn(tmp_path, median, sd, truth):
    """Every finite number a report may hold is drawn at finite coordinates,
    under finite axis labels."""
    import xml.etree.ElementTree as ET

    epoch = {"run": 5, "state": "P1", "median": median, "sd": sd, "truth": truth}
    svg = ET.parse(write_overlay_svg(epoch, tmp_path / "overlay.svg"))
    coordinates = [value for element in svg.iter() for name, value in element.attrib.items()
                   if name in ("points", "x", "y")]
    assert len(coordinates) >= 4
    labels = [element.text for element in svg.findall(".//{*}text")]
    assert len(labels) == 3
    for value in coordinates + labels:
        assert "nan" not in value and "inf" not in value, value


def test_boxplot_of_wear_at_float_max_is_drawn(tmp_path):
    """Wear of either sign, up to the float maximum, is drawn at finite coordinates."""
    import xml.etree.ElementTree as ET

    epochs = [{"run": r, "state": "P1", "median": [1.0], "sd": [0.0], "truth": None,
               "attempt_rmse": [1.0]} for r in (1, 2, 3)]
    per_run = [{"run": r, "flank_wear_mm": w, "err_avg": None, "err_std": None}
               for r, w in ((1, -1.7e308), (2, 0.0), (3, 1.7e308))]
    report = {"epochs": epochs, "summary": {"per_run": per_run}}
    svg = ET.parse(write_boxplot_svg(check_document(report), tmp_path / "box.svg"))
    wear = svg.find("{*}polyline[@stroke-dasharray]").get("points")
    heights = [float(point.split(",")[1]) for point in wear.split()]
    assert heights == [314.0, 180.0, 46.0]


def test_boxplot_of_one_run_far_from_zero(tmp_path):
    import xml.etree.ElementTree as ET

    report = {"epochs": [{"run": 9 * 10**307, "attempt_rmse": [1e20, 1e20]}],
              "summary": {"per_run": []}}
    ET.parse(write_boxplot_svg(report, tmp_path / "box.svg"))
