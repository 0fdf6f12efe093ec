"""Graph construction, lookup, and persistence round trips."""

from __future__ import annotations

import base64
import json
import sys

import numpy as np
import pytest

from conftest import block_values, make_random_ptog
from gendt.ptog import (
    MeasurementSeries,
    Ptog,
    PtogError,
    RunId,
    SensorId,
    StateId,
    build_ptog,
    load_ptog,
    read_samples_csv,
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


def manifest(tmp_path, *entries):
    """A manifest file in `tmp_path` holding `entries`, in the shape
    `save_manifest` writes; a relative csv_path resolves against `tmp_path`."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": list(entries)}))
    return path


def test_milling_manifest_builds_42_vertices(milling_ptog):
    assert milling_ptog.n_vertices == 42
    assert milling_ptog.n_series == 42
    assert [r.index for r in milling_ptog.runs] == list(range(1, 15))
    assert [s.label for s in milling_ptog.states] == ["P1", "P2", "P3"]


def test_empty_manifest_is_valid(tmp_path):
    ptog = build_ptog(manifest(tmp_path))
    assert ptog.n_vertices == 0
    assert ptog.series.get((RunId(1), S1)) is None


def test_duplicate_vertex_rejected(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    entries = [entry(3), entry(3)]
    with pytest.raises(PtogError, match="^duplicate vertex for run "):
        build_ptog(manifest(tmp_path, *entries))


def test_missing_series_file(tmp_path):
    with pytest.raises(PtogError, match=r"^cannot read \S*absent\.csv: No such file or directory$"):
        build_ptog(manifest(tmp_path, entry(1, csv="absent.csv")))


def test_non_finite_sample_rejected(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\nnan\n")
    with pytest.raises(PtogError, match=r"s\.csv:2: non-finite sample 'nan'$"):
        build_ptog(manifest(tmp_path, entry(1)))


def test_samples_csv_one_pass_parse_equals_the_line_loop(tmp_path):
    """`read_samples_csv` parses every line in one pass and falls back to the
    line loop: for any mix of lines, it gives the loop's values, or its error
    type and text, and a file whose every line `float` parses never reaches
    the loop."""
    hypothesis = pytest.importorskip("hypothesis")
    from unittest import mock

    from hypothesis import strategies as st

    from gendt import ptog

    pieces = [b"", b"  ", b"1.5", b" -2e3 ", b"\t7\t", b"1 2", b"1_0", b"nan", b"-inf", b"1e999",
              b"0x1", b"\xff", "\ufffd".encode(), "\u00a03\u00a0".encode(), b"\x1f4", b"\x0c"]
    path = tmp_path / "s.csv"

    def parses(line):
        try:
            float(line)
        except ValueError:
            return False
        return True

    def outcome(read):
        try:
            return ("ok", read().tolist())
        except PtogError as exc:
            return (type(exc).__name__, str(exc))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(lines=st.lists(st.tuples(st.sampled_from(pieces),
                                               st.sampled_from([b"\n", b"\r\n", b"\r", b""]))))
    def check(lines):
        path.write_bytes(b"".join(line + end for line, end in lines))
        loop = outcome(lambda: ptog._read_samples_lines(path, path.read_text(errors="replace").splitlines()))
        assert outcome(lambda: read_samples_csv(path)) == loop
        if loop[0] == "ok" and all(map(parses, path.read_text(errors="replace").splitlines())):
            with mock.patch.object(ptog, "_read_samples_lines", side_effect=AssertionError):
                assert read_samples_csv(path).tolist() == loop[1]

    check()


def test_sensor_mismatch(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(1), entry(2, sensor="acoustic_emission")]
    with pytest.raises(PtogError, match=" mapped to sensors "):
        build_ptog(manifest(tmp_path, *entries))


def test_direct_sensor_mismatch():
    with pytest.raises(PtogError, match=" mapped to sensors "):
        Ptog.from_series([series(1), series(2, sensor=SensorId("other", "V"))])


def test_get_series_present_and_absent(milling_ptog):
    p1 = milling_ptog.state_by_label("P1")
    assert milling_ptog.series.get((RunId(7), p1)) is not None
    assert milling_ptog.series.get((RunId(99), p1)) is None
    assert milling_ptog.series.get((RunId(7), StateId(9, "P9"))) is None


def test_vertex_without_series(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    entries = [entry(1), entry(2, csv=None)]
    ptog = build_ptog(manifest(tmp_path, *entries))
    assert ptog.n_vertices == 2
    assert ptog.n_series == 1
    assert (RunId(2), S1) in ptog.vertices
    assert ptog.series.get((RunId(2), S1)) is None


def test_manifest_dump_rejects_series_less_vertex(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n2.0\n")
    ptog = build_ptog(manifest(tmp_path, entry(1), entry(2, csv=None)))
    with pytest.raises(PtogError, match="empty vertices"):
        save_manifest(ptog, tmp_path / "dump")


def test_runs_sorted_chronologically(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(9), entry(2), entry(5)]
    ptog = build_ptog(manifest(tmp_path, *entries))
    assert [r.index for r in ptog.runs] == [2, 5, 9]


def test_metadata_attached(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    ptog = build_ptog(manifest(tmp_path, entry(1, metadata={"flank_wear_mm": 0.11})))
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
    """Only schema_version 2 is read; a version 1 file, its samples lists of
    numbers, is refused with one line that says how to convert it."""
    doc = milling_ptog.to_dict()
    doc["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PtogError, match="^expected schema_version 2, got 99: "):
        load_ptog(path)
    doc["schema_version"] = 1
    for entry in doc["series"]:
        entry["samples"] = block_values(entry["samples"]).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(PtogError) as info:
        load_ptog(path)
    assert str(info.value) == ("expected schema_version 2, got 1: re-run gendt ingest, "
                               "or rewrite samples as base64 float64 (README)")


def test_load_corrupted_file(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{this is not json")
    with pytest.raises(PtogError):
        load_ptog(path)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_sample_rate_must_be_finite_and_positive(rate, tmp_path):
    """Each reader of a rate applies `errors.RATE`, and the line names the
    series' run and state, in a graph file or a manifest."""
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["series"][0]["sample_rate_hz"] = rate
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PtogError, match="^sample_rate_hz of run 1 P1 must be a finite number > 0, got "):
        load_ptog(path)
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(PtogError, match="^sample_rate_hz of run 1 P1 must be a finite number > 0, got "):
        build_ptog(manifest(tmp_path, dict(entry(1), sample_rate_hz=rate)))


def test_series_length_invariant():
    s = series(1, samples=(1.0, 2.0, 3.0, 4.0))
    assert len(s.samples) == 4


def test_empty_series_rejected():
    with pytest.raises(PtogError):
        series(1, samples=())


def test_manifest_entry_validation(tmp_path):
    with pytest.raises(PtogError, match=r"^run must be an integer in \[1, 10\*\*18\), got 'x'$"):
        build_ptog(manifest(tmp_path, {"run": "x"}))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("run", 0, r"^run must be an integer in \[1, 10\*\*18\), got 0$"),
        ("run", 10**18, r"^run must be an integer in \[1, 10\*\*18\), got 1000000000000000000$"),
        ("run", True, r"^run must be an integer in \[1, 10\*\*18\), got True$"),
        ("state_label", "", "^state_label must be a non-empty string, got ''$"),
    ],
    ids=["zero-run", "run-past-the-bound", "boolean-run", "empty-state-label"],
)
def test_manifest_key_rules(tmp_path, field, value, message):
    """`build_ptog` checks a run by `errors.RUN_INDEX` and a state label by
    `errors.LABEL`, as a graph file's reader does."""
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(PtogError, match=message):
        build_ptog(manifest(tmp_path, dict(entry(3), **{field: value})))


def test_manifest_metadata_of_one_run_must_agree(tmp_path):
    """Entries of one run may each give part of its metadata, or repeat a
    value, but two values for one key are refused, naming the run and key."""
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(2, "P1", metadata={"flank_wear_mm": 0.1}),
               entry(2, "P2", metadata={"flank_wear_mm": 0.1, "feed": 3}),
               entry(2, "P3")]
    ptog = build_ptog(manifest(tmp_path, *entries))
    assert ptog.run_metadata == {RunId(2): {"flank_wear_mm": 0.1, "feed": 3.0}}
    entries[2] = entry(2, "P3", metadata={"flank_wear_mm": 0.2})
    with pytest.raises(PtogError, match="^run 2: manifest entries give metadata 'flank_wear_mm' "
                                        "as 0.1 and 0.2$"):
        build_ptog(manifest(tmp_path, *entries))


@pytest.mark.parametrize(
    "field, value",
    [
        ("run", "3"),
        ("state_label", 7),
        ("sensor", True),
        ("unit", 1),
        ("sample_rate_hz", "250"),
        ("metadata", {"w": "0.5"}),
        ("metadata", ["w"]),
    ],
)
def test_manifest_values_checked_not_coerced(tmp_path, field, value):
    (tmp_path / "s.csv").write_text("1.0\n")
    if field != "metadata":
        message = field
    elif isinstance(value, dict):
        message = "metadata 'w'"
    else:
        message = r"^manifest entry metadata must be a JSON object, got \['w'\]$"
    with pytest.raises(PtogError, match=message):
        build_ptog(manifest(tmp_path, dict(entry(3), **{field: value})))


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\xff[]", "^cannot read "),
        (b"[" * 100_000, "^cannot read "),
        (b'{"no": []}', "^malformed manifest: missing field 'entries'$"),
        (b"[]", r"^manifest must be a JSON object, got \[\]$"),
        (b'{"entries": [5]}', r"^entries\[0\] must be a JSON object, got 5$"),
        (b'{"entries": [{"run": 1}]}', "^malformed manifest: missing field 'state_label'$"),
    ],
    ids=["non-utf8", "nested", "no-entries", "bare-list", "entry-not-object", "missing-field"],
)
def test_unreadable_manifest_file_raises_ptog_error(tmp_path, payload, message):
    (tmp_path / "manifest.json").write_bytes(payload)
    with pytest.raises(PtogError, match=message):
        build_ptog(tmp_path / "manifest.json")


def test_two_states_may_share_one_sensor(tmp_path):
    # sensor uniqueness is a per-state assignment, not a global exclusivity
    (tmp_path / "s.csv").write_text("1.0\n")
    entries = [entry(1, state="P1"), entry(1, state="P2")]
    ptog = build_ptog(manifest(tmp_path, *entries))
    assert ptog.sensors[ptog.state_by_label("P1")] == ptog.sensors[ptog.state_by_label("P2")]


def test_series_less_entry_keeps_its_sensor(tmp_path):
    ptog = build_ptog(manifest(tmp_path, entry(1, state="P4", csv=None, sensor="vib", unit="g")))
    assert ptog.sensors[ptog.state_by_label("P4")] == SensorId("vib", "g")
    path = tmp_path / "g.json"
    save_ptog(ptog, path)
    assert load_ptog(path) == ptog


def test_series_less_entry_sensor_mismatch(tmp_path):
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(PtogError, match=" mapped to sensors "):
        build_ptog(manifest(tmp_path, entry(1), entry(2, csv=None, sensor="acoustic_emission")))


@pytest.mark.parametrize("first_csv", [None, "s.csv"])
def test_duplicate_empty_vertex_rejected_by_manifest(tmp_path, first_csv):
    (tmp_path / "s.csv").write_text("1.0\n")
    with pytest.raises(PtogError, match="^duplicate vertex for run "):
        build_ptog(manifest(tmp_path, entry(2, csv=first_csv), entry(2, csv=None)))


def _graph_doc_with_empty_vertex():
    return Ptog.from_series([series(1)], empty_vertices=[(RunId(2), S1, SENSOR)]).to_dict()


@pytest.mark.parametrize("repeated", [[2, 1], [1, 1]], ids=["empty", "series"])
def test_duplicate_extra_vertex_rejected_by_graph_file(repeated):
    doc = _graph_doc_with_empty_vertex()
    assert doc["extra_vertices"] == [[2, 1]]
    doc["extra_vertices"].append(repeated)
    with pytest.raises(PtogError, match="^duplicate vertex for run "):
        Ptog.from_dict(doc)


def test_duplicated_state_label_rejected_by_graph_file():
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["states"].append({"index": 2, "label": "P1", "sensor": {"name": "other", "unit": "V"}})
    with pytest.raises(PtogError, match="state label 'P1'"):
        Ptog.from_dict(doc)


def test_metadata_for_unknown_run_rejected_by_graph_file():
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["runs"].append({"index": 9, "metadata": {"flank_wear_mm": 0.5}})
    with pytest.raises(PtogError, match="^metadata for unknown run 9$"):
        Ptog.from_dict(doc)


def test_duplicated_state_index_rejected_by_graph_file():
    doc = _graph_doc_with_empty_vertex()
    doc["states"].append({"index": 1, "label": "P9", "sensor": {"name": "other", "unit": "V"}})
    with pytest.raises(PtogError, match="state index 1"):
        Ptog.from_dict(doc)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ways a caller may hold the samples [1.0, 2.0, 3.0] as an array
_CALLER_ARRAYS = {
    "writeable": lambda: np.array([1.0, 2.0, 3.0]),
    "writeable-view": lambda: np.array([0.0, 1.0, 2.0, 3.0])[1:],
    "read-only-owner": lambda: _read_only(np.array([1.0, 2.0, 3.0])),
    "read-only-view-of-writeable-owner": lambda: _read_only(np.array([1.0, 2.0, 3.0])[:]),
    "view-of-read-only-owner": lambda: _read_only(np.array([0.0, 1.0, 2.0, 3.0]))[1:],
    "bytes-buffer": lambda: np.frombuffer(np.array([1.0, 2.0, 3.0]).tobytes()),
    "bytearray-buffer": lambda: np.frombuffer(bytearray(np.array([1.0, 2.0, 3.0]).tobytes())),
    "float32": lambda: np.array([1.0, 2.0, 3.0], np.float32),
    "int64": lambda: np.array([1, 2, 3]),
}


@pytest.mark.parametrize("make", _CALLER_ARRAYS.values(), ids=_CALLER_ARRAYS)
def test_stored_samples_never_share_the_callers_memory(make):
    """A series stores its own read-only float64 copy of any array it is
    given, writeable or read-only, owner or view, so no caller can change it."""
    given = make()
    stored = MeasurementSeries(RunId(1), S1, SENSOR, 100.0, given).samples
    assert not np.shares_memory(stored, given)
    assert stored.flags.owndata and not stored.flags.writeable and stored.dtype == np.float64
    assert stored.tolist() == [1.0, 2.0, 3.0]


def test_samples_are_one_read_only_float64_array(milling_ptog, tmp_path):
    """Samples are checked once at construction and stored as a read-only 1-D
    float64 array; graphs with equal series still compare and hash equal."""
    s = series(1, samples=[1, 2.5, 4])
    assert s.samples.dtype == np.float64 and s.samples.ndim == 1
    assert s.samples.tolist() == [1.0, 2.5, 4.0]
    for samples in ([1, 2.5, True], (1, True)):  # numpy would read the boolean as 1
        with pytest.raises(PtogError, match="must be floats or 64-bit integers, not bool$"):
            series(1, samples=samples)
    with pytest.raises(ValueError):
        s.samples[0] = 9.0

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


@pytest.mark.parametrize(
    "samples",
    [[[1.0, 2.0]], 5.0, [1.0, [2.0]], ["a"], [10**400], [1.0, "1.5"], [True, False], None, True, {}],
)
def test_samples_of_the_wrong_shape_rejected_by_graph_file(samples):
    """A samples block is a string: a list (a schema_version 1 file's
    samples), a number, null, a boolean or an object is refused by type."""
    doc = Ptog.from_series([series(1)]).to_dict()
    doc["series"][0]["samples"] = samples
    with pytest.raises(PtogError, match="^samples of run 1 P1 must be a base64 string of "
                                        "little-endian float64 bytes, got "):
        Ptog.from_dict(doc)


def test_samples_round_trip_bit_for_bit(tmp_path):
    """`save_ptog` then `load_ptog` keeps each series' bytes, a save of the
    loaded graph is the same file, and each block is the little-endian
    float64 bytes of its series, whatever the byte order of the array given."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    edges = [-0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
             sys.float_info.min, 1e300, -1e300, 0.1, 1.0]
    values = st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False))
    arrays = st.lists(values, min_size=1, max_size=40)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(columns=st.lists(st.tuples(arrays, st.sampled_from(["<f8", ">f8", "=f8"])),
                                       min_size=1, max_size=4))
    def check(columns):
        given = [np.array(x, order) for x, order in columns]
        graph = Ptog.from_series([MeasurementSeries(RunId(run), S1, SENSOR, 100.0, x)
                                  for run, x in enumerate(given, start=1)])
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_ptog(graph, first)
        loaded = load_ptog(first)
        for run, x in enumerate(given, start=1):
            samples = loaded.series[(RunId(run), S1)].samples
            assert samples.tobytes() == x.astype(np.float64).tobytes()
        save_ptog(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        blocks = [e["samples"] for e in json.loads(first.read_text())["series"]]
        assert [base64.b64decode(b) for b in blocks] == [x.astype("<f8").tobytes() for x in given]

    check()
