"""Physical twin observation graph: runs x process states x sensor series.

The graph is immutable after construction and safe to share across concurrent
readers. Vertices are (run, state) pairs; a vertex may exist without a stored
measurement series (the measurement has not been received), but a stored
series, its own read-only float64 copy of its samples, always implies a
vertex. A graph file is one JSON document of `schema_version` 2, the only
version read: each series' `samples` is one base64 string of its little-endian
IEEE-754 float64 bytes, so the file round-trips bit for bit and loads without
parsing float text.

The keys are plain named tuples: each reader checks a run, a state or a
sample rate where it enters, by `RUN_INDEX`, `STATE_INDEX`, `LABEL` or `RATE`.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .errors import (INTEGER, LABEL, NUMBER, OBJECT, RATE, RUN_INDEX, STATE_INDEX, STRING, GendtError, Kind,
                     checked, list_of, read_json, shown)

SCHEMA_VERSION = 2


class PtogError(GendtError):
    """Graph construction or persistence failure."""


_checked = partial(checked, PtogError)
_OBJECTS = list_of(OBJECT)
_PAIRS = list_of(Kind("a [run, state] pair", lambda v: type(v) is list and len(v) == 2))
_BLOCK = Kind("a base64 string of little-endian float64 bytes", lambda v: type(v) is str)


class RunId(NamedTuple):
    """1-based chronological run index, below 10**18 as it names files."""

    index: int


class StateId(NamedTuple):
    """Process state within a run, e.g. index 1 with label 'P1'."""

    index: int
    label: str


class SensorId(NamedTuple):
    name: str
    unit: str


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """One sensor trace for a single (run, state) vertex; `samples` is
    checked once, here, and stored as the series' own read-only 1-D float64
    copy. A boolean is not a number, alone or among numbers."""

    run: RunId
    state: StateId
    sensor: SensorId
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.samples)
        listed = isinstance(self.samples, (list, tuple))  # numpy reads a boolean among numbers as 0 or 1
        dtype = np.dtype(bool) if listed and bool in set(map(type, self.samples)) else raw.dtype
        if dtype.kind not in "iuf":  # booleans, text, nulls, integers beyond 64 bits
            raise PtogError(f"samples of {self._where()} must be floats or 64-bit integers, not {dtype}")
        samples = raw.astype(np.float64, copy=not listed)  # a list's array is already its own
        if samples.ndim != 1:
            raise PtogError(f"samples of {self._where()} must be a flat list, got {samples.ndim} dimensions")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if not samples.size:
            raise PtogError(f"series for {self._where()} has no samples")
        finite = np.isfinite(samples)
        if not finite.all():
            raise PtogError(f"non-finite sample at position {finite.argmin()} in {self._where()}")

    def _where(self) -> str:  # for an error line, so a valid series builds no text
        return f"run {self.run.index} {self.state.label}"

    def _key(self) -> tuple:
        return (self.run, self.state, self.sensor, self.sample_rate_hz)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MeasurementSeries) and self._key() == other._key()
                and np.array_equal(self.samples, other.samples))

    def __hash__(self) -> int:  # without the samples: 0.0 == -0.0, but their bytes differ
        return hash(self._key())


@dataclass(frozen=True)
class Ptog:
    """Validated observation graph. Treat all mappings as read-only."""

    runs: tuple[RunId, ...]
    states: tuple[StateId, ...]
    sensors: Mapping[StateId, SensorId]
    vertices: frozenset[tuple[RunId, StateId]]
    series: Mapping[tuple[RunId, StateId], MeasurementSeries]
    run_metadata: Mapping[RunId, Mapping[str, float]] = field(default_factory=dict)

    @classmethod
    def from_series(
        cls,
        series: Iterable[MeasurementSeries],
        run_metadata: Optional[Mapping[int, Mapping[str, float]]] = None,
        empty_vertices: Iterable[tuple[RunId, StateId, SensorId]] = (),
    ) -> "Ptog":
        """Assemble and validate a graph from measurement series.

        `empty_vertices` declares (run, state, sensor) triples that exist in the
        process timeline but carry no measurement yet; absence stays explicit
        instead of being modeled as an empty series. Every vertex, with or
        without a series, is checked for duplicates and for its state's sensor.
        Each state's index and label are paired where they enter (a graph
        file declares each once; ingest and `build_ptog` number states by
        label), so a caller gives one `StateId` per label and per index.
        `run_metadata` maps a run index to values its caller already checked.
        """
        series_map: dict[tuple[RunId, StateId], MeasurementSeries] = {}
        vertices: set[tuple[RunId, StateId]] = set()
        sensors: dict[StateId, SensorId] = {}

        def add_vertex(run: RunId, state: StateId, sensor: SensorId) -> None:
            if (run, state) in vertices:
                raise PtogError(f"duplicate vertex for run {run.index} {state.label}")
            assigned = sensors.setdefault(state, sensor)
            if assigned != sensor:
                raise PtogError(
                    f"state {state.label} mapped to sensors {assigned.name!r} and {sensor.name!r}"
                )
            vertices.add((run, state))

        for s in series:
            add_vertex(s.run, s.state, s.sensor)
            series_map[(s.run, s.state)] = s
        for run, state, sensor in empty_vertices:
            add_vertex(run, state, sensor)

        run_set = {r for r, _ in vertices}
        metadata: dict[RunId, dict[str, float]] = {}
        for run_index, meta in (run_metadata or {}).items():
            if not meta:
                continue
            run = RunId(run_index)
            if run not in run_set:
                raise PtogError(f"metadata for unknown run {run_index}")
            metadata[run] = dict(meta)

        return cls(
            runs=tuple(sorted(run_set)),
            states=tuple(sorted(sensors)),
            sensors=sensors,
            vertices=frozenset(vertices),
            series=series_map,
            run_metadata=metadata,
        )

    def state_by_label(self, label: str) -> Optional[StateId]:
        for s in self.states:
            if s.label == label:
                return s
        return None

    @cached_property
    def runs_by_state(self) -> Mapping[StateId, tuple[RunId, ...]]:
        """Each state's run timeline: the runs that carry a series for it, in
        chronological order. Built on first use, not at load."""
        return {
            state: tuple(r for r in self.runs if (r, state) in self.series) for state in self.states
        }

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_series(self) -> int:
        return len(self.series)

    def to_dict(self) -> dict:
        states_doc = [
            {
                "index": s.index,
                "label": s.label,
                "sensor": {"name": self.sensors[s].name, "unit": self.sensors[s].unit},
            }
            for s in self.states
        ]
        runs_doc = [
            {"index": r.index, "metadata": dict(self.run_metadata.get(r, {}))} for r in self.runs
        ]
        series_doc = [
            {
                "run": key[0].index,
                "state": key[1].index,
                "sample_rate_hz": s.sample_rate_hz,
                "samples": base64.b64encode(s.samples.astype("<f8", copy=False).tobytes()).decode(),
            }
            for key, s in sorted(self.series.items())  # keys are unique: no series is compared
        ]
        extra = sorted(
            [r.index, s.index] for (r, s) in self.vertices if (r, s) not in self.series
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "states": states_doc,
            "runs": runs_doc,
            "series": series_doc,
            "extra_vertices": extra,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Ptog":
        """A graph document, its values checked, not coerced, by `errors.checked`:
        a run index is `RUN_INDEX`, a state's index and label `STATE_INDEX` and
        `LABEL`, a sensor name or unit a string, a sample rate `RATE`, a
        metadata value a finite number, and a samples block a base64 string.
        `MeasurementSeries` checks the values it decodes to."""
        _checked(doc, OBJECT, "graph document")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise PtogError(f"expected schema_version {SCHEMA_VERSION}, got {shown(version)}: "
                            "re-run gendt ingest, or rewrite samples as base64 float64 (README)")
        try:
            states = {}
            sensors = {}
            for s in _checked(doc["states"], _OBJECTS, "states"):
                sid = StateId(_checked(s["index"], STATE_INDEX, "state index"),
                              _checked(s["label"], LABEL, "state label"))
                if sid.index in states:
                    raise PtogError(f"state index {sid.index} declared twice")
                if any(known.label == sid.label for known in states.values()):
                    raise PtogError(f"state label {shown(sid.label)} declared twice")
                states[sid.index] = sid
                sensor = _checked(s["sensor"], OBJECT, lambda: f"state {sid.label}: sensor")
                sensors[sid] = SensorId(_checked(sensor["name"], STRING, "sensor name"),
                                        _checked(sensor["unit"], STRING, "sensor unit"))
            metadata = {}
            for r in _checked(doc["runs"], _OBJECTS, "runs"):
                run = _checked(r["index"], RUN_INDEX, "run index")
                if run in metadata:
                    raise PtogError(f"run index {run} declared twice")
                meta = _checked(r.get("metadata", {}), OBJECT, lambda: f"run {run}: metadata")
                metadata[run] = {k: float(_checked(v, NUMBER, lambda: f"metadata {shown(k)}"))
                                 for k, v in meta.items()}

            def vertex(run, state) -> tuple[RunId, StateId, SensorId]:
                index = _checked(state, INTEGER, "state index")
                run = RunId(_checked(run, RUN_INDEX, "run index"))
                if index not in states:
                    raise PtogError(f"run {run.index}: state index {index} is not declared")
                return run, states[index], sensors[states[index]]

            def one_series(e) -> MeasurementSeries:
                run, state, sensor = vertex(e["run"], e["state"])
                rate = float(_checked(e["sample_rate_hz"], RATE,
                                      lambda: f"sample_rate_hz of run {run.index} {state.label}"))
                samples_of = lambda: f"samples of run {run.index} {state.label}"  # for an error line
                try:  # strict base64: the alphabet and padding only, no line break
                    raw = base64.b64decode(_checked(e["samples"], _BLOCK, samples_of), validate=True)
                    samples = np.frombuffer(raw, "<f8")  # a whole number of values, or ValueError
                except ValueError as exc:  # also binascii.Error, or a character beyond ASCII
                    raise PtogError(f"{samples_of()} must be {_BLOCK.what}: {exc}") from exc
                return MeasurementSeries(run, state, sensor, rate, samples)  # rejects an empty block

            series = [one_series(e) for e in _checked(doc["series"], _OBJECTS, "series")]
            pairs = _checked(doc.get("extra_vertices", []), _PAIRS, "extra_vertices")
            extra = [vertex(r, s) for r, s in pairs]
        except KeyError as exc:  # every value present was checked
            raise PtogError(f"malformed graph document: missing field {exc}") from exc
        return cls.from_series(series, run_metadata=metadata, empty_vertices=extra)


def read_samples_csv(path: Union[str, Path]) -> np.ndarray:
    """Single-column header-less CSV of decimal samples, as a float64 array.

    Every line is parsed in one pass (`float` strips the whitespace around a
    number); only a file that fails that, by a blank line, a line that is not
    one number, a non-finite value or no line at all, is read again line by
    line, which skips blank lines and names the first bad one."""
    p = Path(path)
    try:  # an undecodable byte reads as U+FFFD, so its line fails as unparseable below
        lines = p.read_text(errors="replace").splitlines()
    except OSError as exc:  # as `errors.read_json` words it: an OSError's text repeats the path
        raise PtogError(f"cannot read {p}: {exc.strerror or exc}") from exc
    try:
        values = np.fromiter(map(float, lines), np.float64, len(lines))
    except ValueError:
        pass
    else:
        if values.size and np.isfinite(values).all():
            return values
    return _read_samples_lines(p, lines)


def _read_samples_lines(p: Path, lines: list[str]) -> np.ndarray:
    """`read_samples_csv` one line at a time: the same values, or the error
    that names the first bad line."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise PtogError(f"{p}:{lineno}: unparseable sample {shown(line)}") from exc
        if not math.isfinite(v):
            raise PtogError(f"{p}:{lineno}: non-finite sample {shown(line)}")
        values.append(v)
    if not values:
        raise PtogError(f"{p}: series file is empty")
    return np.array(values)


def build_ptog(path: Union[str, Path]) -> Ptog:
    """Read the manifest `save_manifest` writes, `{"entries": [...]}`, into a
    graph; `Ptog.from_series` validates it.

    Each entry's values are checked, not coerced, as `Ptog.from_dict` checks a
    graph document's. A relative `csv_path` resolves against the manifest's
    directory, and a null one declares a vertex without a series. A run's
    entries may give its metadata in parts, but not two values for one key.
    State indices are assigned by first appearance, runs sorted chronologically.
    """
    doc = _checked(read_json(path, PtogError), OBJECT, "manifest")
    base = Path(path).parent
    state_ids: dict[str, StateId] = {}
    series: list[MeasurementSeries] = []
    empty_vertices: list[tuple[RunId, StateId, SensorId]] = []
    metadata: dict[int, dict[str, float]] = {}
    try:
        for e in _checked(doc["entries"], _OBJECTS, "entries"):
            run = _checked(e["run"], RUN_INDEX, "run")
            label = _checked(e["state_label"], LABEL, "state_label")
            sensor = SensorId(_checked(e["sensor"], STRING, "sensor"), _checked(e["unit"], STRING, "unit"))
            rate = float(_checked(e["sample_rate_hz"], RATE, lambda: f"sample_rate_hz of run {run} {label}"))
            csv_path = e.get("csv_path")
            run_meta = metadata.setdefault(run, {})
            for k, v in _checked(e.get("metadata", {}), OBJECT, "manifest entry metadata").items():
                v = float(_checked(v, NUMBER, lambda: f"metadata {shown(k)}"))
                if run_meta.setdefault(k, v) != v:
                    raise PtogError(f"run {run}: manifest entries give metadata {shown(k)} "
                                    f"as {shown(run_meta[k])} and {shown(v)}")
            if label not in state_ids:
                state_ids[label] = StateId(len(state_ids) + 1, label)
            vertex = (RunId(run), state_ids[label], sensor)
            if csv_path is None:
                empty_vertices.append(vertex)
            else:
                # an absolute csv_path replaces the base
                samples = read_samples_csv(base / _checked(csv_path, STRING, "csv_path"))
                series.append(MeasurementSeries(*vertex, rate, samples))
    except KeyError as exc:
        raise PtogError(f"malformed manifest: missing field {exc}") from exc
    return Ptog.from_series(series, run_metadata=metadata, empty_vertices=empty_vertices)


def save_manifest(ptog: Ptog, out_dir: Union[str, Path]) -> Path:
    """Dump the graph as segments/run_<k>_<label>.csv (one `repr` float a line)
    plus the manifest `build_ptog` reads. The manifest's paths are relative to
    its own directory, so the dump is relocatable. Returns the manifest path."""
    if ptog.n_vertices != ptog.n_series:
        raise PtogError("a manifest dump holds stored series only; the graph has empty vertices")
    out_dir = Path(out_dir)
    (out_dir / "segments").mkdir(parents=True, exist_ok=True)
    entries = []
    for (run, state), s in sorted(ptog.series.items()):
        csv_path = f"segments/run_{run.index}_{state.label}.csv"
        (out_dir / csv_path).write_text("\n".join(map(repr, s.samples.tolist())) + "\n")
        entries.append({"run": run.index, "state_label": state.label, "sensor": s.sensor.name,
                        "unit": s.sensor.unit, "sample_rate_hz": s.sample_rate_hz,
                        "csv_path": csv_path, "metadata": dict(ptog.run_metadata.get(run, {}))})
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(canonical_json({"entries": entries}) + "\n")
    return manifest_path


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_ptog(ptog: Ptog, path: Union[str, Path]) -> None:
    """Write the graph as one self-describing JSON document (canonical key order)."""
    Path(path).write_text(canonical_json(ptog.to_dict()) + "\n")


def load_ptog(path: Union[str, Path]) -> Ptog:
    return Ptog.from_dict(read_json(path, PtogError))
