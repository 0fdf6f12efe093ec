"""Physical twin observation graph: runs x process states x sensor series.

The graph is immutable after construction and safe to share across concurrent
readers. Vertices are (run, state) pairs; a vertex may exist without a stored
measurement series (the measurement has not been received), but a stored
series always implies a vertex.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import GendtError

SCHEMA_VERSION = 1


class PtogError(GendtError):
    """Graph construction or persistence failure."""


class DuplicateVertex(PtogError):
    """Two manifest entries or series target the same (run, state)."""


class MissingSeriesFile(PtogError):
    """A referenced sample file does not exist."""


class NonFiniteSample(PtogError):
    """A sample is NaN, infinite, or unparseable."""


class SensorMismatch(PtogError):
    """One process state was mapped to two different sensors."""


class SchemaVersionMismatch(PtogError):
    """A persisted graph was written with an unsupported schema version."""


@dataclass(frozen=True, order=True)
class RunId:
    """1-based chronological run index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise PtogError(f"run index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class StateId:
    """Process state within a run, e.g. index 1 with label 'P1'."""

    index: int
    label: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise PtogError(f"state index must be >= 1, got {self.index}")
        if not self.label:
            raise PtogError("state label must be non-empty")


@dataclass(frozen=True)
class SensorId:
    name: str
    unit: str


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """One sensor trace for a single (run, state) vertex; `samples` is
    checked once, here, and stored as a read-only 1-D float64 array."""

    run: RunId
    state: StateId
    sensor: SensorId
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        where = f"run {self.run.index} {self.state.label}"
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise PtogError(f"samples of {where} must be a flat list, got {samples.ndim} dimensions")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise PtogError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if not samples.size:
            raise PtogError(f"series for {where} has no samples")
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise NonFiniteSample(f"non-finite sample at position {bad[0]} in {where}")

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
        """
        series_map: dict[tuple[RunId, StateId], MeasurementSeries] = {}
        vertices: set[tuple[RunId, StateId]] = set()
        sensors: dict[StateId, SensorId] = {}
        labels: dict[str, StateId] = {}
        indices: dict[int, StateId] = {}

        def add_vertex(run: RunId, state: StateId, sensor: SensorId) -> None:
            if (run, state) in vertices:
                raise DuplicateVertex(f"duplicate vertex for run {run.index} {state.label}")
            known = labels.get(state.label)
            if known is not None and known != state:
                raise PtogError(f"state label {state.label!r} bound to two different indices")
            known = indices.get(state.index)
            if known is not None and known != state:
                raise PtogError(f"state index {state.index} bound to two different labels")
            labels[state.label] = state
            indices[state.index] = state
            assigned = sensors.setdefault(state, sensor)
            if assigned != sensor:
                raise SensorMismatch(
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
            rid = run_index if isinstance(run_index, RunId) else RunId(int(run_index))
            if rid not in run_set:
                raise PtogError(f"metadata for unknown run {rid.index}")
            metadata[rid] = {str(k): float(v) for k, v in meta.items()}

        return cls(
            runs=tuple(sorted(run_set)),
            states=tuple(sorted(labels.values(), key=lambda s: s.index)),
            sensors=sensors,
            vertices=frozenset(vertices),
            series=series_map,
            run_metadata=metadata,
        )

    def _coerce_run(self, run: Union[RunId, int]) -> RunId:
        return run if isinstance(run, RunId) else RunId(int(run))

    def _coerce_state(self, state: Union[StateId, str]) -> Optional[StateId]:
        if isinstance(state, StateId):
            return state
        return self.state_by_label(state)

    def state_by_label(self, label: str) -> Optional[StateId]:
        for s in self.states:
            if s.label == label:
                return s
        return None

    def get_series(
        self, run: Union[RunId, int], state: Union[StateId, str]
    ) -> Optional[MeasurementSeries]:
        """Stored series for a vertex, or None. Absence is a value, not an error."""
        sid = self._coerce_state(state)
        if sid is None:
            return None
        return self.series.get((self._coerce_run(run), sid))

    def has_vertex(self, run: Union[RunId, int], state: Union[StateId, str]) -> bool:
        sid = self._coerce_state(state)
        return sid is not None and (self._coerce_run(run), sid) in self.vertices

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
                "samples": s.samples.tolist(),
            }
            for key, s in sorted(self.series.items(), key=lambda kv: (kv[0][0], kv[0][1].index))
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
        if not isinstance(doc, Mapping):
            raise PtogError(f"graph document must be a JSON object, got {type(doc).__name__}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionMismatch(f"expected schema_version {SCHEMA_VERSION}, got {version!r}")
        try:
            states = {}
            sensors = {}
            for s in doc["states"]:
                sid = StateId(int(s["index"]), str(s["label"]))
                if sid.index in states:
                    raise PtogError(f"state index {sid.index} declared twice")
                if any(known.label == sid.label for known in states.values()):
                    raise PtogError(f"state label {sid.label!r} declared twice")
                states[sid.index] = sid
                sensors[sid] = SensorId(str(s["sensor"]["name"]), str(s["sensor"]["unit"]))
            metadata = {
                int(r["index"]): {k: float(v) for k, v in r.get("metadata", {}).items()}
                for r in doc["runs"]
            }
            series = [
                MeasurementSeries(
                    run=RunId(int(e["run"])),
                    state=states[int(e["state"])],
                    sensor=sensors[states[int(e["state"])]],
                    sample_rate_hz=float(e["sample_rate_hz"]),
                    samples=e["samples"],
                )
                for e in doc["series"]
            ]
            extra = [
                (RunId(int(r)), states[int(s)], sensors[states[int(s)]])
                for r, s in doc.get("extra_vertices", [])
            ]
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            # AttributeError: a list or a scalar where the document needs an object
            raise PtogError(f"malformed graph document: {exc}") from exc
        return cls.from_series(series, run_metadata=metadata, empty_vertices=extra)


@dataclass(frozen=True)
class ManifestEntry:
    """One dataset-manifest row; csv_path None declares a series-less vertex."""

    run: int
    state_label: str
    sensor: str
    unit: str
    sample_rate_hz: float
    csv_path: Optional[str]
    metadata: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "ManifestEntry":
        try:
            return cls(
                run=int(doc["run"]),
                state_label=str(doc["state_label"]),
                sensor=str(doc["sensor"]),
                unit=str(doc["unit"]),
                sample_rate_hz=float(doc["sample_rate_hz"]),
                csv_path=None if doc.get("csv_path") is None else str(doc["csv_path"]),
                metadata={str(k): float(v) for k, v in doc.get("metadata", {}).items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PtogError(f"malformed manifest entry: {exc}") from exc


def load_manifest(path: Union[str, Path]) -> list[ManifestEntry]:
    doc = json.loads(Path(path).read_text())
    entries = doc["entries"] if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise PtogError("manifest must be a list of entries or {'entries': [...]}")
    return [ManifestEntry.from_mapping(e) for e in entries]


def read_samples_csv(path: Union[str, Path]) -> tuple[float, ...]:
    """Single-column header-less CSV of decimal samples."""
    p = Path(path)
    if not p.exists():
        raise MissingSeriesFile(str(p))
    values = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError as exc:
            raise NonFiniteSample(f"{p}:{lineno}: unparseable sample {line!r}") from exc
        if not math.isfinite(v):
            raise NonFiniteSample(f"{p}:{lineno}: non-finite sample {line!r}")
        values.append(v)
    if not values:
        raise PtogError(f"{p}: series file is empty")
    return tuple(values)


def build_ptog(
    manifest: Union[str, Path, Sequence[Union[ManifestEntry, Mapping]]],
    base_dir: Optional[Union[str, Path]] = None,
) -> Ptog:
    """Parse a dataset manifest into a graph; `Ptog.from_series` validates it.

    `manifest` is a JSON file path or an in-memory entry list. Relative
    csv_path values resolve against the manifest's directory (or `base_dir`).
    State indices are assigned by first appearance, runs sorted chronologically.
    """
    if isinstance(manifest, (str, Path)):
        if base_dir is None:
            base_dir = Path(manifest).parent
        entries = load_manifest(manifest)
    else:
        entries = [e if isinstance(e, ManifestEntry) else ManifestEntry.from_mapping(e) for e in manifest]
    base = Path(base_dir) if base_dir is not None else Path(".")

    state_ids: dict[str, StateId] = {}
    series: list[MeasurementSeries] = []
    empty_vertices: list[tuple[RunId, StateId, SensorId]] = []
    metadata: dict[int, dict[str, float]] = {}
    for e in entries:
        if e.state_label not in state_ids:
            state_ids[e.state_label] = StateId(len(state_ids) + 1, e.state_label)
        run, state, sensor = RunId(e.run), state_ids[e.state_label], SensorId(e.sensor, e.unit)
        if e.csv_path is None:
            empty_vertices.append((run, state, sensor))
        else:
            # an absolute csv_path replaces the base
            samples = read_samples_csv(base / e.csv_path)
            series.append(MeasurementSeries(run, state, sensor, e.sample_rate_hz, samples))
        if e.metadata:
            metadata.setdefault(e.run, {}).update(e.metadata)

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
    for (run, state), s in sorted(ptog.series.items(), key=lambda kv: (kv[0][0], kv[0][1].index)):
        csv_path = f"segments/run_{run.index}_{state.label}.csv"
        (out_dir / csv_path).write_text("\n".join(map(repr, s.samples.tolist())) + "\n")
        meta = ptog.run_metadata.get(run, {})
        entry = ManifestEntry(run.index, state.label, s.sensor.name, s.sensor.unit,
                              s.sample_rate_hz, csv_path, meta)
        entries.append(asdict(entry))
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(canonical_json({"entries": entries}) + "\n")
    return manifest_path


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_ptog(ptog: Ptog, path: Union[str, Path]) -> None:
    """Write the graph as one self-describing JSON document (canonical key order)."""
    Path(path).write_text(canonical_json(ptog.to_dict()) + "\n")


def load_ptog(path: Union[str, Path]) -> Ptog:
    return Ptog.from_dict(json.loads(Path(path).read_text()))
