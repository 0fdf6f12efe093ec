"""Graph construction, lookup, and persistence round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import make_random_ptog
from gendt.ptog import (
    DuplicateVertex,
    ManifestEntry,
    MeasurementSeries,
    MissingSeriesFile,
    NonFiniteSample,
    Ptog,
    PtogError,
    RunId,
    SchemaVersionMismatch,
    SensorId,
    SensorMismatch,
    StateId,
    build_ptog,
    load_ptog,
    save_manifest,
    save_ptog,
)

S1 = StateId(1, "P1")
SENSOR = SensorId("spindle_current", "A")


def series(run, state=S1, samples=(1.0, 2.0, 3.0), sensor=SENSOR):
    return MeasurementSeries(RunId(run), state, sensor, 100.0, tuple(samples))


def entry(run, state="P1", csv="s.csv", **kw):
    return {
        "run": run,
        "state_label": state,
        "sensor": kw.get("sensor", "spindle_current"),
        "unit": kw.get("unit", "A"),
        "sample_rate_hz": 100.0,
        "csv_path": csv,
        "metadata": kw.get("metadata", {}),
    }


def test_milling_manifest_builds_42_vertices(milling_ptog):
    assert milling_ptog.n_vertices == 42
    assert milling_ptog.n_series == 42
    assert [r.index for r in milling_ptog.runs] == list(range(1, 15))
    assert [s.label for s in milling_ptog.states] == ["P1", "P2", "P3"]


def test_empty_manifest_is_valid():
    ptog = build_ptog([])
    assert ptog.n_vertices == 0
    assert ptog.get_series(1, "P1") is None


def test_duplicate_vertex_rejected(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    entries = [entry(3), entry(3)]
    with pytest.raises(DuplicateVertex):
        build_ptog(entries, base_dir=tmp_path)


def test_missing_series_file(tmp_path):
    with pytest.raises(MissingSeriesFile):
        build_ptog([entry(1, csv="absent.csv")], base_dir=tmp_path)


def test_non_finite_sample_rejected(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\nnan\n")
    with pytest.raises(NonFiniteSample):
        build_ptog([entry(1)], base_dir=tmp_path)


def test_sensor_mismatch(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(1), entry(2, sensor="acoustic_emission")]
    with pytest.raises(SensorMismatch):
        build_ptog(entries, base_dir=tmp_path)


def test_direct_sensor_mismatch():
    with pytest.raises(SensorMismatch):
        Ptog.from_series([series(1), series(2, sensor=SensorId("other", "V"))])


def test_get_series_present_and_absent(milling_ptog):
    assert milling_ptog.get_series(7, "P1") is not None
    assert milling_ptog.get_series(99, "P1") is None
    assert milling_ptog.get_series(7, "P9") is None


def test_vertex_without_series(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    entries = [entry(1), entry(2, csv=None)]
    ptog = build_ptog(entries, base_dir=tmp_path)
    assert ptog.n_vertices == 2
    assert ptog.n_series == 1
    assert ptog.has_vertex(2, "P1")
    assert ptog.get_series(2, "P1") is None


def test_manifest_dump_rejects_series_less_vertex(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    ptog = build_ptog([entry(1), entry(2, csv=None)], base_dir=tmp_path)
    with pytest.raises(PtogError, match="empty vertices"):
        save_manifest(ptog, tmp_path / "dump")


def test_runs_sorted_chronologically(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(9), entry(2), entry(5)]
    ptog = build_ptog(entries, base_dir=tmp_path)
    assert [r.index for r in ptog.runs] == [2, 5, 9]


def test_metadata_attached(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    ptog = build_ptog([entry(1, metadata={"flank_wear_mm": 0.11})], base_dir=tmp_path)
    assert ptog.run_metadata[RunId(1)]["flank_wear_mm"] == 0.11


def test_round_trip_milling(milling_ptog, tmp_path):
    path = tmp_path / "ptog.json"
    save_ptog(milling_ptog, path)
    assert load_ptog(path) == milling_ptog


def test_round_trip_random_graphs(tmp_path):
    rng = np.random.default_rng(1234)
    for i in range(25):
        ptog = make_random_ptog(rng, max_runs=20, max_states=6, with_metadata=True)
        path = tmp_path / f"g{i}.json"
        save_ptog(ptog, path)
        assert load_ptog(path) == ptog


def test_two_saves_byte_identical(milling_ptog, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_ptog(milling_ptog, a)
    save_ptog(milling_ptog, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_wrong_schema_version(milling_ptog, tmp_path):
    doc = milling_ptog.to_dict()
    doc["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionMismatch):
        load_ptog(path)


def test_load_corrupted_file(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{this is not json")
    with pytest.raises((SchemaVersionMismatch, json.JSONDecodeError)):
        load_ptog(path)


def test_series_length_invariant():
    s = series(1, samples=(1.0, 2.0, 3.0, 4.0))
    assert len(s.samples) == 4


def test_empty_series_rejected():
    with pytest.raises(PtogError):
        series(1, samples=())


def test_manifest_entry_validation():
    with pytest.raises(PtogError):
        ManifestEntry.from_mapping({"run": "x"})


def test_two_states_may_share_one_sensor(tmp_path):
    # sensor uniqueness is a per-state assignment, not a global exclusivity
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(1, state="P1"), entry(1, state="P2")]
    ptog = build_ptog(entries, base_dir=tmp_path)
    assert ptog.sensors[ptog.state_by_label("P1")] == ptog.sensors[ptog.state_by_label("P2")]


def test_series_less_entry_keeps_its_sensor(tmp_path):
    ptog = build_ptog([entry(1, state="P4", csv=None, sensor="vib", unit="g")], base_dir=tmp_path)
    assert ptog.sensors[ptog.state_by_label("P4")] == SensorId("vib", "g")
    path = tmp_path / "g.json"
    save_ptog(ptog, path)
    assert load_ptog(path) == ptog


def test_series_less_entry_sensor_mismatch(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(SensorMismatch):
        build_ptog([entry(1), entry(2, csv=None, sensor="acoustic_emission")], base_dir=tmp_path)


@pytest.mark.parametrize("first_csv", [None, "s.csv"])
def test_duplicate_empty_vertex_rejected_by_manifest(tmp_path, first_csv):
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(DuplicateVertex):
        build_ptog([entry(2, csv=first_csv), entry(2, csv=None)], base_dir=tmp_path)


def _graph_doc_with_empty_vertex():
    return Ptog.from_series([series(1)], empty_vertices=[(RunId(2), S1, SENSOR)]).to_dict()


@pytest.mark.parametrize("repeated", [[2, 1], [1, 1]], ids=["empty", "series"])
def test_duplicate_extra_vertex_rejected_by_graph_file(repeated):
    doc = _graph_doc_with_empty_vertex()
    assert doc["extra_vertices"] == [[2, 1]]
    doc["extra_vertices"].append(repeated)
    with pytest.raises(DuplicateVertex):
        Ptog.from_dict(doc)


def test_duplicated_state_label_rejected_by_graph_file():
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["states"].append({"index": 2, "label": "P1", "sensor": {"name": "other", "unit": "V"}})
    with pytest.raises(PtogError, match="state label 'P1'"):
        Ptog.from_dict(doc)


def test_duplicated_state_index_rejected_by_graph_file():
    doc = _graph_doc_with_empty_vertex()
    doc["states"].append({"index": 1, "label": "P9", "sensor": {"name": "other", "unit": "V"}})
    with pytest.raises(PtogError, match="state index 1"):
        Ptog.from_dict(doc)


def test_samples_are_one_read_only_float64_array(milling_ptog, tmp_path):
    """Samples are checked once at construction and stored as a read-only 1-D
    float64 array; graphs with equal series still compare and hash equal."""
    s = series(1, samples=[1, 2.5, True])
    assert s.samples.dtype == np.float64 and s.samples.ndim == 1
    assert s.samples.tolist() == [1.0, 2.5, 1.0]
    with pytest.raises(ValueError):
        s.samples[0] = 9.0
    source = np.array([1.0, 2.0])
    copied = series(1, samples=source)
    source[0] = 9.0  # the series keeps its own copy
    assert copied.samples.tolist() == [1.0, 2.0]

    assert series(1, samples=[0.0, 2.0]) == series(1, samples=(-0.0, 2.0))
    assert hash(series(1, samples=[0.0, 2.0])) == hash(series(1, samples=(-0.0, 2.0)))
    assert series(1, samples=[1.0, 2.0]) != series(1, samples=[1.0, 2.5])
    assert series(1, samples=[1.0]) != series(2, samples=[1.0])

    path = tmp_path / "g.json"
    save_ptog(milling_ptog, path)
    loaded = load_ptog(path)
    assert loaded == milling_ptog
    assert {hash(s) for s in loaded.series.values()} == {hash(s) for s in milling_ptog.series.values()}
    assert build_ptog(save_manifest(milling_ptog, tmp_path / "dump")) == milling_ptog


@pytest.mark.parametrize("samples", [[[1.0, 2.0]], 5.0, [1.0, [2.0]], ["a"], [10**400]])
def test_samples_of_the_wrong_shape_rejected_by_graph_file(samples):
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["series"][0]["samples"] = samples
    with pytest.raises(PtogError):
        Ptog.from_dict(doc)
