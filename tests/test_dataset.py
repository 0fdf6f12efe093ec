"""Segmentation, wear interpolation, and fixture ingestion."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from gendt.dataset import (
    DatasetError,
    DegenerateSegment,
    InsufficientPoints,
    NoCuttingDetected,
    SegmentationSpec,
    WearRecord,
    ingest_fixture,
    interpolate_wear,
    segment,
    write_synthetic_fixture,
)
from gendt.ptog import (
    MissingSeriesFile,
    NonFiniteSample,
    RunId,
    SensorId,
    build_ptog,
    save_manifest,
)
from gendt.windowing import enumerate_epochs


# ---------------------------------------------------------------- segmentation


def test_explicit_segmentation_lengths():
    series = list(range(600))
    spec = SegmentationSpec(mode="explicit", boundaries=[0, 100, 400, 500])
    p1, p2, p3 = segment(series, spec)
    assert (len(p1), len(p2), len(p3)) == (100, 300, 100)
    assert p1 + p2 + p3 == series[0:500]  # partition of the cutting region


def test_explicit_segmentation_per_run_boundaries():
    spec = SegmentationSpec(mode="explicit", boundaries={3: [0, 2, 4, 6]})
    p1, p2, p3 = segment([1, 2, 3, 4, 5, 6], spec, run=3)
    assert (p1, p2, p3) == ([1, 2], [3, 4], [5, 6])
    with pytest.raises(DatasetError):
        segment([1, 2, 3, 4, 5, 6], spec, run=9)


def test_explicit_boundaries_validated():
    spec = SegmentationSpec(mode="explicit", boundaries=[0, 100, 90, 120])
    with pytest.raises(DatasetError):
        segment(list(range(200)), spec)
    spec = SegmentationSpec(mode="explicit", boundaries=[0, 10, 20, 500])
    with pytest.raises(DatasetError):
        segment(list(range(100)), spec)


def trapezoid(plateau_level=10.0, ramp=100, plateau=300):
    up = [plateau_level * i / ramp for i in range(ramp)]
    flat = [plateau_level] * plateau
    down = [plateau_level * (1 - i / ramp) for i in range(ramp)]
    return up + flat + down


def test_threshold_segmentation_finds_trapezoid_knees():
    ramp, plateau, level = 100, 300, 10.0
    x = trapezoid(level, ramp, plateau)
    spec = SegmentationSpec(
        mode="threshold",
        entry_threshold=0.1 * level,
        exit_threshold=0.1 * level,
        min_plateau_len=20,
    )
    p1, p2, p3 = segment(x, spec)
    # entry crossing at 10% of the ramp, knees at ramp/plateau joints
    assert len(p1) == pytest.approx(ramp - 0.1 * ramp, abs=2)
    assert len(p2) == pytest.approx(plateau, abs=2)
    assert len(p3) == pytest.approx(ramp - 0.1 * ramp, abs=2)


def test_threshold_no_cutting():
    spec = SegmentationSpec(
        mode="threshold", entry_threshold=1.0, exit_threshold=1.0, min_plateau_len=5
    )
    with pytest.raises(NoCuttingDetected):
        segment([0.0] * 200, spec)


def test_threshold_degenerate_segment():
    spec = SegmentationSpec(
        mode="threshold", entry_threshold=0.5, exit_threshold=0.5, min_plateau_len=50
    )
    # spike with no plateau of the required length
    x = [0.0] * 10 + [1.0, 5.0, 1.0] * 30 + [0.0] * 10
    with pytest.raises((DegenerateSegment, NoCuttingDetected)):
        segment(x, spec)


def test_segment_requires_three_samples():
    spec = SegmentationSpec(mode="explicit", boundaries=[0, 1, 2, 3])
    with pytest.raises(DatasetError):
        segment([1.0, 2.0], spec)


# ---------------------------------------------------------------- wear


def test_wear_interpolation_reproduces_published_rows():
    records = {r.run: r for r in interpolate_wear([(1, 0.0), (4, 0.11)], runs=[1, 2, 3, 4])}
    assert records[2].flank_wear_mm == pytest.approx(0.0367, abs=0.0001)
    assert records[3].flank_wear_mm == pytest.approx(0.0734, abs=0.0002)
    assert records[2].interpolated and records[3].interpolated
    assert not records[1].interpolated and not records[4].interpolated


def test_wear_linear_midpoint():
    records = {r.run: r for r in interpolate_wear([(5, 0.155), (8, 0.29)], runs=[5, 6, 7, 8])}
    assert records[6].flank_wear_mm == pytest.approx(0.2, abs=1e-12)


def test_wear_identity_when_all_known():
    known = [(1, 0.1), (2, 0.2), (3, 0.3)]
    records = interpolate_wear(known, runs=[1, 2, 3])
    assert [(r.run, r.flank_wear_mm, r.interpolated) for r in records] == [
        (1, 0.1, False),
        (2, 0.2, False),
        (3, 0.3, False),
    ]


def test_wear_flat_extrapolation_flagged():
    records = {r.run: r for r in interpolate_wear([(3, 0.1), (5, 0.2)], runs=[1, 3, 5, 8])}
    assert records[1].flank_wear_mm == 0.1 and records[1].interpolated
    assert records[8].flank_wear_mm == 0.2 and records[8].interpolated


def test_wear_matches_two_point_line_oracle():
    known = [(1, 0.0), (4, 0.11), (8, 0.29), (14, 0.45)]
    records = {r.run: r for r in interpolate_wear(known, runs=range(1, 15))}
    for (r0, w0), (r1, w1) in zip(known, known[1:]):
        for run in range(r0 + 1, r1):
            expected = w0 + (w1 - w0) * (run - r0) / (r1 - r0)
            assert records[run].flank_wear_mm == pytest.approx(expected, abs=1e-9)


def test_wear_requires_two_points():
    with pytest.raises(InsufficientPoints):
        interpolate_wear([(5, 0.155)], runs=[5, 6])


def test_wear_rejects_unsorted_known():
    with pytest.raises(DatasetError):
        interpolate_wear([(4, 0.11), (1, 0.0)], runs=[1, 4])


def test_wear_record_validation():
    with pytest.raises(DatasetError):
        WearRecord(1, -0.1, False)


# ---------------------------------------------------------------- ingestion


def test_ingest_writes_42_entries(milling_ptog):
    assert milling_ptog.n_series == 42
    assert [(s.index, s.label) for s in milling_ptog.states] == [(1, "P1"), (2, "P2"), (3, "P3")]
    assert set(milling_ptog.sensors.values()) == {SensorId("spindle_current", "A")}
    assert {s.sample_rate_hz for s in milling_ptog.series.values()} == {250.0}
    run5 = milling_ptog.run_metadata[RunId(5)]
    assert run5["flank_wear_mm"] == pytest.approx(0.155, abs=1e-9)
    assert run5["flank_wear_interpolated"] == 1.0
    assert milling_ptog.run_metadata[RunId(4)]["flank_wear_interpolated"] == 0.0


def test_ingest_round_trips_through_manifest(milling_ptog, tmp_path):
    manifest = save_manifest(milling_ptog, tmp_path / "work")
    assert build_ptog(manifest) == milling_ptog
    entries = json.loads(manifest.read_text())["entries"]
    assert len(entries) == 42
    assert entries[0]["csv_path"] == "segments/run_1_P1.csv"
    assert sorted(p.name for p in (tmp_path / "work").iterdir()) == ["manifest.json", "segments"]
    assert len(list((tmp_path / "work" / "segments").iterdir())) == 42


def test_ingest_missing_run_csv(fixture_dir, tmp_path):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(fixture_dir, broken)
    (broken / "run_7.csv").unlink()
    with pytest.raises(MissingSeriesFile):
        ingest_fixture(broken)


def test_ingest_idempotent(fixture_dir, tmp_path):
    g1 = ingest_fixture(fixture_dir)
    g2 = ingest_fixture(fixture_dir)
    assert g1 == g2
    m1 = save_manifest(g1, tmp_path / "w1")
    m2 = save_manifest(g2, tmp_path / "w2")
    assert m1.read_bytes() == m2.read_bytes()
    m3 = save_manifest(g1, tmp_path / "w1")  # rerun in place
    assert m3.read_bytes() == m1.read_bytes()


def test_single_run_fixture_yields_no_epochs(tmp_path):
    fixture = write_synthetic_fixture(tmp_path / "one", runs=1)
    ptog = ingest_fixture(fixture)
    assert ptog.n_vertices == 3
    assert enumerate_epochs(ptog, min_history=1) == []


def test_synthetic_fixture_is_deterministic(tmp_path):
    a = write_synthetic_fixture(tmp_path / "a", runs=3, seed=5)
    b = write_synthetic_fixture(tmp_path / "b", runs=3, seed=5)
    for name in ("run_1.csv", "run_2.csv", "run_3.csv", "fixture.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synthetic_plateau_drifts_upward(milling_ptog):
    """The wear signature: stable-cut level rises run over run."""
    state = milling_ptog.state_by_label("P2")
    levels = [
        float(np.mean(milling_ptog.get_series(r, state).samples)) for r in (1, 7, 14)
    ]
    assert levels[0] < levels[1] < levels[2]


def test_segmentation_spec_validation():
    with pytest.raises(DatasetError):
        SegmentationSpec(mode="explicit")  # boundaries required
    with pytest.raises(DatasetError):
        SegmentationSpec(mode="threshold", entry_threshold=0.0, exit_threshold=1.0)
    with pytest.raises(DatasetError):
        SegmentationSpec(mode="nonsense")


def _copy_fixture(fixture_dir, tmp_path):
    import shutil

    return Path(shutil.copytree(fixture_dir, tmp_path / "copy"))


def test_ingest_rejects_non_numeric_sample(fixture_dir, tmp_path):
    broken = _copy_fixture(fixture_dir, tmp_path)
    lines = (broken / "run_3.csv").read_text().splitlines()
    lines[4] = "1.5e"
    (broken / "run_3.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(NonFiniteSample, match=r"run_3\.csv:5: "):
        ingest_fixture(broken)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda meta: meta.pop("sample_rate_hz"), id="no-sample-rate"),
        pytest.param(lambda meta: meta.update(sample_rate_hz="fast"), id="text-sample-rate"),
        pytest.param(lambda meta: meta.update(boundaries=[[0, 1, 2, 3]]), id="boundaries-list"),
        pytest.param(
            lambda meta: meta["boundaries"].update({"2": [0, "x", 200, 300]}), id="text-boundary"
        ),
        pytest.param(lambda meta: meta["boundaries"].update({"2": 7}), id="scalar-boundaries"),
        pytest.param(
            lambda meta: meta.update(wear_points=[[1, "worn"], [2, 0.1]]), id="text-wear"
        ),
        pytest.param(
            lambda meta: (
                meta.pop("boundaries"),
                meta.update(entry_threshold=[1.0], exit_threshold=0.5),
            ),
            id="list-threshold",
        ),
        pytest.param(lambda meta: meta.pop("boundaries"), id="no-thresholds"),
    ],
)
def test_ingest_rejects_bad_fixture_meta(fixture_dir, tmp_path, edit):
    broken = _copy_fixture(fixture_dir, tmp_path)
    meta_path = broken / "fixture.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="fixture.json"):
        ingest_fixture(broken)


@pytest.mark.parametrize("name", ["run_old.csv", "run_1_0.csv", "run_.csv"])
def test_threshold_ingest_rejects_stray_run_file(fixture_dir, tmp_path, name):
    fixture = _copy_fixture(fixture_dir, tmp_path)
    meta_path = fixture / "fixture.json"
    meta = json.loads(meta_path.read_text())
    del meta["boundaries"]
    meta.update(entry_threshold=1.0, exit_threshold=0.5)
    meta_path.write_text(json.dumps(meta))
    (fixture / name).write_text("1.0\n")
    with pytest.raises(DatasetError, match=re.escape(name)):
        ingest_fixture(fixture)
