"""Segmentation at explicit boundaries, wear interpolation, and fixture ingestion."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from gendt.cli import EXIT_INPUT, EXIT_OK, main
from gendt.dataset import (
    STATE_LABELS,
    DatasetError,
    ingest_fixture,
    interpolate_wear,
    segment,
    write_synthetic_fixture,
)
from gendt.ptog import (
    PtogError,
    RunId,
    SensorId,
    build_ptog,
    read_samples_csv,
    save_manifest,
)
from gendt.windowing import enumerate_epochs


# ---------------------------------------------------------------- segmentation


def test_explicit_segmentation_lengths():
    series = list(range(600))
    p1, p2, p3 = segment(series, (0, 100, 400, 500))
    assert (len(p1), len(p2), len(p3)) == (100, 300, 100)
    assert p1 + p2 + p3 == series[0:500]  # partition of the cutting region


def test_explicit_segmentation_per_run_boundaries(fixture_dir, tmp_path):
    p1, p2, p3 = segment([1, 2, 3, 4, 5, 6], (0, 2, 4, 6))
    assert (p1, p2, p3) == ([1, 2], [3, 4], [5, 6])
    # each run is cut at its own boundaries, and a run without boundaries is no run
    fixture = _copy_fixture(fixture_dir, tmp_path)
    meta = json.loads((fixture / "fixture.json").read_text())
    meta["boundaries"]["3"] = [0, 2, 4, 6]
    del meta["boundaries"]["9"]
    (fixture / "fixture.json").write_text(json.dumps(meta))
    ptog = ingest_fixture(fixture)
    samples = read_samples_csv(fixture / "run_3.csv")
    cut = [ptog.series[RunId(3), ptog.state_by_label(label)].samples.tolist()
           for label in STATE_LABELS]
    assert cut == [list(samples[0:2]), list(samples[2:4]), list(samples[4:6])]
    assert RunId(9) not in ptog.runs and len(ptog.runs) == 13


def test_explicit_boundaries_validated():
    """`segment` checks only the rule that needs the run's samples; the
    order of the boundaries is `fixture.json`'s rule (see below)."""
    message = r"^boundaries \(0, 10, 20, 500\) must end within the run's 100 samples$"
    with pytest.raises(DatasetError, match=message):
        segment(list(range(100)), (0, 10, 20, 500))


def test_segment_requires_three_samples():
    with pytest.raises(DatasetError):
        segment([1.0, 2.0], (0, 1, 2, 3))


# ---------------------------------------------------------------- wear


def test_wear_interpolation_reproduces_published_rows():
    records = interpolate_wear([(1, 0.0), (4, 0.11)], runs=[1, 2, 3, 4])
    assert records[2]["flank_wear_mm"] == pytest.approx(0.0367, abs=0.0001)
    assert records[3]["flank_wear_mm"] == pytest.approx(0.0734, abs=0.0002)
    assert [records[r]["flank_wear_interpolated"] for r in (1, 2, 3, 4)] == [0.0, 1.0, 1.0, 0.0]


def test_wear_linear_midpoint():
    records = interpolate_wear([(5, 0.155), (8, 0.29)], runs=[5, 6, 7, 8])
    assert records[6]["flank_wear_mm"] == pytest.approx(0.2, abs=1e-12)


def test_wear_identity_when_all_known():
    known = [(1, 0.1), (2, 0.2), (3, 0.3)]
    assert interpolate_wear(known, runs=[1, 2, 3]) == {
        1: {"flank_wear_mm": 0.1, "flank_wear_interpolated": 0.0},
        2: {"flank_wear_mm": 0.2, "flank_wear_interpolated": 0.0},
        3: {"flank_wear_mm": 0.3, "flank_wear_interpolated": 0.0},
    }


def test_wear_flat_extrapolation_flagged():
    records = interpolate_wear([(3, 0.1), (5, 0.2)], runs=[1, 3, 5, 8])
    assert records[1] == {"flank_wear_mm": 0.1, "flank_wear_interpolated": 1.0}
    assert records[8] == {"flank_wear_mm": 0.2, "flank_wear_interpolated": 1.0}


def test_wear_matches_two_point_line_oracle():
    known = [(1, 0.0), (4, 0.11), (8, 0.29), (14, 0.45)]
    records = interpolate_wear(known, runs=range(1, 15))
    for (r0, w0), (r1, w1) in zip(known, known[1:]):
        for run in range(r0 + 1, r1):
            expected = w0 + (w1 - w0) * (run - r0) / (r1 - r0)
            assert records[run]["flank_wear_mm"] == expected  # bit for bit, not approx


def test_one_wear_point_sets_every_run(fixture_dir, tmp_path):
    """One known wear point is valid: every run takes its value, flagged
    interpolated unless it is the known run; no point gives no metadata."""
    broken = _copy_fixture(fixture_dir, tmp_path)
    meta = json.loads((broken / "fixture.json").read_text())
    for points, expected in (([[4, 0.11]], {"flank_wear_mm": 0.11}), ([], {})):
        meta["wear_points"] = points
        (broken / "fixture.json").write_text(json.dumps(meta))
        graph = tmp_path / "g.json"
        assert main(["ingest", "--fixture", str(broken), "--out", str(graph)]) == EXIT_OK
        runs = json.loads(graph.read_text())["runs"]
        assert [r["index"] for r in runs] == list(range(1, 15))
        for r in runs:
            flag = {"flank_wear_interpolated": float(r["index"] != 4)} if expected else {}
            assert r["metadata"] == {**expected, **flag}
    assert interpolate_wear([], runs=[1, 2]) == {}


def _swap(meta, field, key, i, j):
    items = meta[field][key] if key is not None else meta[field]
    items[i], items[j] = items[j], items[i]


# each rule of fixture.json that only its own values can break, the edit
# that breaks it, and the error line's text after "fixture.json: ";
# `{bounds}` is run 3's boundaries as the edited file holds them
_FIXTURE_RULES = {
    "zero-rate": (lambda m: m.update(sample_rate_hz=0), "sample_rate_hz must be a finite number > 0, got 0"),
    "negative-rate": (lambda m: m.update(sample_rate_hz=-250),
                      "sample_rate_hz must be a finite number > 0, got -250"),
    "boundaries-out-of-order": (lambda m: _swap(m, "boundaries", "3", 0, 1),
                                "boundaries of run 3 must be 4 integers [start, p1_end, p2_end, end] "
                                "with 0 <= start < p1_end < p2_end < end, got {bounds}"),
    "negative-start": (lambda m: m["boundaries"]["3"].__setitem__(0, -1),
                       "boundaries of run 3 must be 4 integers [start, p1_end, p2_end, end] "
                       "with 0 <= start < p1_end < p2_end < end, got {bounds}"),
    "wear-out-of-order": (lambda m: _swap(m, "wear_points", None, 1, 2),
                          "wear_points[2] must be of a run above 6, got [4, 0.11]"),
    "repeated-wear-run": (lambda m: m["wear_points"][2].__setitem__(0, 4),
                          "wear_points[2] must be of a run above 4, got [4, 0.2]"),
}


@pytest.mark.parametrize("edit, message", _FIXTURE_RULES.values(), ids=_FIXTURE_RULES)
def test_fixture_meta_rule_exits_input(fixture_dir, tmp_path, capsys, edit, message):
    """Each rule is checked when fixture.json is read: exit 2 and exactly one
    error line, which names the file and the field."""
    broken = _copy_fixture(fixture_dir, tmp_path)
    meta = json.loads((broken / "fixture.json").read_text())
    edit(meta)
    (broken / "fixture.json").write_text(json.dumps(meta))
    graph = tmp_path / "g.json"
    assert main(["ingest", "--fixture", str(broken), "--out", str(graph)]) == EXIT_INPUT
    line = "error: fixture.json: " + message.format(bounds=meta["boundaries"]["3"])
    assert capsys.readouterr().err.splitlines() == [line]
    assert not graph.exists()


@pytest.mark.parametrize("wear", [-0.1, float("nan"), float("inf")])
def test_fixture_wear_must_be_finite_and_non_negative(fixture_dir, tmp_path, capsys, wear):
    """The wear rule is checked where the value enters, in `fixture.json`:
    exit 2 and one line that names the wear point."""
    broken = _copy_fixture(fixture_dir, tmp_path)
    meta = json.loads((broken / "fixture.json").read_text())
    meta["wear_points"][1][1] = wear
    (broken / "fixture.json").write_text(json.dumps(meta))
    assert main(["ingest", "--fixture", str(broken), "--out", str(tmp_path / "g.json")]) == EXIT_INPUT
    run = meta["wear_points"][1][0]
    assert capsys.readouterr().err.splitlines() == [
        "error: fixture.json: wear_points[1] must be a [run, flank_wear_mm] pair of an integer "
        f"and a finite number >= 0, got [{run}, {wear!r}]"]


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
    with pytest.raises(PtogError, match=r"^cannot read \S*run_7\.csv: No such file or directory$"):
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
        float(np.mean(milling_ptog.series[RunId(r), state].samples)) for r in (1, 7, 14)
    ]
    assert levels[0] < levels[1] < levels[2]


def _copy_fixture(fixture_dir, tmp_path):
    import shutil

    return Path(shutil.copytree(fixture_dir, tmp_path / "copy"))


def test_ingest_rejects_non_numeric_sample(fixture_dir, tmp_path):
    broken = _copy_fixture(fixture_dir, tmp_path)
    lines = (broken / "run_3.csv").read_text().splitlines()
    lines[4] = "1.5e"
    (broken / "run_3.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(PtogError, match=r"run_3\.csv:5: unparseable sample '1\.5e'$"):
        ingest_fixture(broken)


def _put(*path):
    """An edit of the metadata that sets the item at path[:-1] to path[-1]."""
    *keys, last, value = path

    def edit(meta):
        for key in keys:
            meta = meta[key]
        meta[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda meta: meta.pop("sample_rate_hz"), id="no-sample-rate"),
        pytest.param(lambda meta: meta.update(sample_rate_hz="fast"), id="text-sample-rate"),
        pytest.param(_put("sample_rate_hz", float("nan")), id="nan-sample-rate"),
        pytest.param(_put("sample_rate_hz", float("inf")), id="inf-sample-rate"),
        pytest.param(lambda meta: meta.pop("boundaries"), id="no-boundaries"),
        pytest.param(lambda meta: meta.update(boundaries=[[0, 1, 2, 3]]), id="boundaries-list"),
        pytest.param(
            lambda meta: meta["boundaries"].update({"2": [0, "x", 200, 300]}), id="text-boundary"
        ),
        pytest.param(lambda meta: meta["boundaries"].update({"2": 7}), id="scalar-boundaries"),
        pytest.param(_put("boundaries", "2", 1, 130.9), id="fractional-boundary"),
        pytest.param(_put("boundaries", "2", 1, "130"), id="numeric-text-boundary"),
        pytest.param(_put("boundaries", "2", 0, True), id="boolean-boundary"),
        pytest.param(_put("boundaries", "1" + "0" * 5000, [0, 1, 2, 3]), id="huge-run-key"),
        pytest.param(
            lambda meta: meta.update(wear_points=[[1, "worn"], [2, 0.1]]), id="text-wear"
        ),
        pytest.param(_put("wear_points", 0, 0, 1.5), id="fractional-wear-run"),
        pytest.param(_put("wear_points", 1, 1, float("nan")), id="nan-wear"),
    ],
)
def test_ingest_rejects_bad_fixture_meta(fixture_dir, tmp_path, capsys, edit):
    broken = _copy_fixture(fixture_dir, tmp_path)
    meta_path = broken / "fixture.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="fixture.json"):
        ingest_fixture(broken)
    graph = tmp_path / "g.json"
    assert main(["ingest", "--fixture", str(broken), "--out", str(graph)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not graph.exists()
