"""Milling-style fixture ingestion: per-run current CSVs, three-state
segmentation, and flank-wear metadata, producing the observation graph.

The reference path uses explicit per-run boundaries shipped with the fixture;
the threshold heuristic exists for new data where boundaries are unknown. A
synthetic fixture generator ships here so tests never need external files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import GendtError
from .ptog import MeasurementSeries, Ptog, RunId, SensorId, StateId, read_samples_csv

STATE_LABELS = ("P1", "P2", "P3")
SENSOR_NAME = "spindle_current"
SENSOR_UNIT = "A"
FIXTURE_META_NAME = "fixture.json"


class DatasetError(GendtError):
    pass


class NoCuttingDetected(DatasetError):
    """The signal never rises above the entry threshold."""


class DegenerateSegment(DatasetError):
    """Segmentation produced an empty process state."""


class InsufficientPoints(DatasetError):
    """Wear interpolation needs at least two known measurements."""


@dataclass(frozen=True)
class SegmentationSpec:
    """Either explicit [start, p1_end, p2_end, end] boundaries (per run or
    shared) or a threshold heuristic for unlabeled data."""

    mode: str = "explicit"  # "explicit" | "threshold"
    boundaries: Optional[Union[Sequence[int], Mapping[int, Sequence[int]]]] = None
    entry_threshold: float = 0.0
    exit_threshold: float = 0.0
    min_plateau_len: int = 10

    def __post_init__(self) -> None:
        if self.mode not in ("explicit", "threshold"):
            raise DatasetError(f"unknown segmentation mode {self.mode!r}")
        if self.mode == "explicit" and self.boundaries is None:
            raise DatasetError("explicit segmentation requires boundaries")
        if self.mode == "threshold":
            if self.entry_threshold <= 0 or self.exit_threshold <= 0:
                raise DatasetError("threshold segmentation requires positive thresholds")
            if self.min_plateau_len < 1:
                raise DatasetError("min_plateau_len must be >= 1")

    def boundaries_for(self, run: Optional[int]) -> tuple[int, int, int, int]:
        b = self.boundaries
        if isinstance(b, Mapping):
            if run is None:
                raise DatasetError("per-run boundaries need a run index")
            try:
                b = b[run]
            except KeyError as exc:
                raise DatasetError(f"no boundaries for run {run}") from exc
        if len(b) != 4:
            raise DatasetError(f"boundaries must be [start, p1_end, p2_end, end], got {b!r}")
        return tuple(int(v) for v in b)


@dataclass(frozen=True)
class WearRecord:
    run: int
    flank_wear_mm: float
    interpolated: bool

    def __post_init__(self) -> None:
        if self.flank_wear_mm < 0:
            raise DatasetError(f"flank wear must be >= 0, got {self.flank_wear_mm}")


def _explicit_segments(x: Sequence[float], bounds: tuple[int, int, int, int]):
    start, p1_end, p2_end, end = bounds
    if not (0 <= start < p1_end < p2_end < end <= len(x)):
        raise DatasetError(
            f"boundaries {bounds} must be strictly increasing within series length {len(x)}"
        )
    return list(x[start:p1_end]), list(x[p1_end:p2_end]), list(x[p2_end:end])


def _sustained_runs(mask: np.ndarray, min_len: int) -> list[tuple[int, int]]:
    """[start, end) index pairs of mask stretches at least min_len long."""
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_len:
                runs.append((start, i))
            start = None
    if start is not None and len(mask) - start >= min_len:
        runs.append((start, len(mask)))
    return runs


def _threshold_segments(x: Sequence[float], spec: SegmentationSpec):
    arr = np.asarray(x, dtype=float)
    entry_runs = _sustained_runs(arr > spec.entry_threshold, spec.min_plateau_len)
    if not entry_runs:
        raise NoCuttingDetected(
            f"no stretch of {spec.min_plateau_len}+ samples above {spec.entry_threshold}"
        )
    start = entry_runs[0][0]
    exit_runs = _sustained_runs(arr > spec.exit_threshold, spec.min_plateau_len)
    end = exit_runs[-1][1] if exit_runs else entry_runs[-1][1]

    cut = arr[start:end]
    # plateau = longest low-slope stretch; tolerance scales with signal range
    slope_tol = (float(cut.max()) - float(cut.min())) * 0.5 / max(len(cut), 1)
    flat = np.abs(np.diff(cut)) < slope_tol
    plateau_runs = _sustained_runs(flat, spec.min_plateau_len)
    if not plateau_runs:
        raise DegenerateSegment("no plateau of the required length inside the cutting region")
    p_on, p_off = max(plateau_runs, key=lambda r: r[1] - r[0])
    segments = (
        list(cut[:p_on]),
        list(cut[p_on : p_off + 1]),
        list(cut[p_off + 1 :]),
    )
    return segments


def segment(
    run_series: Sequence[float], spec: SegmentationSpec, run: Optional[int] = None
) -> tuple[list[float], list[float], list[float]]:
    """Split one run's trace into the three process states (entry, stable, exit)."""
    if len(run_series) < 3:
        raise DatasetError(f"series of length {len(run_series)} cannot hold three states")
    if spec.mode == "explicit":
        segments = _explicit_segments(run_series, spec.boundaries_for(run))
    else:
        segments = _threshold_segments(run_series, spec)
    for label, seg in zip(STATE_LABELS, segments):
        if not seg:
            raise DegenerateSegment(f"segment {label} is empty")
    return segments


def interpolate_wear(
    known: Sequence[tuple[int, float]], runs: Sequence[int]
) -> list[WearRecord]:
    """Linear interpolation of wear between known runs; runs outside the known
    span take the nearest known value and are flagged as interpolated."""
    if len(known) < 2:
        raise InsufficientPoints(f"need at least 2 known wear points, got {len(known)}")
    points = [(int(r), float(w)) for r, w in known]
    if any(points[i][0] >= points[i + 1][0] for i in range(len(points) - 1)):
        raise DatasetError("known wear runs must be sorted and strictly increasing")
    known_map = dict(points)
    records = []
    for run in runs:
        if run in known_map:
            records.append(WearRecord(run, known_map[run], interpolated=False))
            continue
        if run < points[0][0]:
            records.append(WearRecord(run, points[0][1], interpolated=True))
            continue
        if run > points[-1][0]:
            records.append(WearRecord(run, points[-1][1], interpolated=True))
            continue
        for (r0, w0), (r1, w1) in zip(points, points[1:]):
            if r0 < run < r1:
                w = w0 + (w1 - w0) * (run - r0) / (r1 - r0)
                records.append(WearRecord(run, w, interpolated=True))
                break
    return records


def load_fixture_meta(fixture_dir: Union[str, Path]) -> dict:
    path = Path(fixture_dir) / FIXTURE_META_NAME
    if not path.exists():
        raise DatasetError(f"fixture metadata {path} not found")
    return json.loads(path.read_text())


def segmentation_from_meta(meta: Mapping) -> SegmentationSpec:
    if "boundaries" in meta:
        return SegmentationSpec(
            mode="explicit",
            boundaries={int(k): tuple(int(b) for b in v) for k, v in meta["boundaries"].items()},
        )
    return SegmentationSpec(
        mode="threshold",
        entry_threshold=float(meta["entry_threshold"]),
        exit_threshold=float(meta["exit_threshold"]),
        min_plateau_len=int(meta.get("min_plateau_len", 10)),
    )


def _run_index(path: Path) -> int:
    k = path.stem[len("run_"):]
    if not (k.isascii() and k.isdigit()):
        raise DatasetError(f"{path}: run files must be named run_<k>.csv with an integer k")
    return int(k)


def ingest_fixture(
    fixture_dir: Union[str, Path],
    seg: Optional[SegmentationSpec] = None,
    wear: Optional[Sequence[tuple[int, float]]] = None,
) -> Ptog:
    """Segment per-run CSVs into state series and build the observation graph.

    `seg` and `wear` default to what the fixture's metadata file declares.
    Each run CSV is read once and nothing is written (`ptog.save_manifest`
    dumps the graph). Ingestion is deterministic: same fixture, same graph.
    """
    fixture_dir = Path(fixture_dir)
    meta = load_fixture_meta(fixture_dir)
    try:
        sample_rate_hz = float(meta["sample_rate_hz"])
        if seg is None:
            seg = segmentation_from_meta(meta)
        if wear is None:
            wear = [(int(r), float(w)) for r, w in meta.get("wear_points", [])]
    except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{FIXTURE_META_NAME}: missing or ill-typed field ({exc!r})") from exc

    if isinstance(seg.boundaries, Mapping):
        runs = sorted(seg.boundaries)
    else:
        runs = sorted(_run_index(p) for p in fixture_dir.glob("run_*.csv"))
    if not runs:
        raise DatasetError(f"no runs found in {fixture_dir}")

    metadata = {
        r.run: {"flank_wear_mm": r.flank_wear_mm, "flank_wear_interpolated": float(r.interpolated)}
        for r in (interpolate_wear(wear, runs) if len(wear) >= 2 else ())
    }
    states = [StateId(i, label) for i, label in enumerate(STATE_LABELS, start=1)]
    sensor = SensorId(SENSOR_NAME, SENSOR_UNIT)
    series = []
    for run in runs:
        samples = read_samples_csv(fixture_dir / f"run_{run}.csv")
        for state, values in zip(states, segment(samples, seg, run=run)):
            series.append(MeasurementSeries(RunId(run), state, sensor, sample_rate_hz, values))
    return Ptog.from_series(series, run_metadata=metadata)


# Wear measurements for the synthetic fixture, matching the milling campaign's
# measured rows; the gaps get linearly interpolated at ingest.
SYNTHETIC_WEAR_POINTS = (
    (1, 0.0),
    (4, 0.11),
    (6, 0.2),
    (7, 0.24),
    (8, 0.29),
    (9, 0.28),
    (10, 0.29),
    (11, 0.38),
    (12, 0.4),
    (13, 0.43),
    (14, 0.45),
)


def write_synthetic_fixture(
    out_dir: Union[str, Path],
    runs: int = 14,
    sample_rate_hz: float = 250.0,
    seed: int = 7,
) -> Path:
    """Generate a desk-scale fixture: per run, a nonlinear entry ramp, a noisy
    plateau whose level drifts upward run over run (the wear signature), and
    an exit ramp. Writes run_<k>.csv files plus the metadata JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    boundaries = {}
    for run in range(1, runs + 1):
        rng = np.random.default_rng([seed, run])
        level = 3.5 + 3.0 * (run - 1) / max(runs - 1, 1)
        idle_len = 40
        ramp_in = 90 + int(rng.integers(0, 20))
        plateau_len = 400 + int(rng.integers(0, 60))
        ramp_out = 80 + int(rng.integers(0, 20))

        t_total = idle_len * 2 + ramp_in + plateau_len + ramp_out
        t = np.arange(t_total) / sample_rate_hz
        x = np.full(t_total, 0.15)
        i0 = idle_len
        i1 = i0 + ramp_in
        i2 = i1 + plateau_len
        i3 = i2 + ramp_out
        ramp = np.linspace(0.0, 1.0, ramp_in, endpoint=False)
        x[i0:i1] = 0.15 + (level - 0.15) * ramp**2  # nonlinear initial cutting
        x[i1:i2] = level + 0.12 * np.sin(2 * np.pi * 1.3 * t[i1:i2] + 0.7 * run)
        fall = np.linspace(1.0, 0.0, ramp_out, endpoint=False)
        x[i2:i3] = 0.15 + (level - 0.15) * fall**2

        # high-frequency content for the low-pass stage to remove
        x = x + 0.25 * np.sin(2 * np.pi * 35.0 * t) + rng.normal(0.0, 0.1, t_total)
        x = np.clip(x, 0.0, None)

        (out_dir / f"run_{run}.csv").write_text(
            "\n".join(f"{v:.6f}" for v in x) + "\n"
        )
        boundaries[str(run)] = [i0, i1, i2, i3]

    meta = {
        "sample_rate_hz": sample_rate_hz,
        "boundaries": boundaries,
        "wear_points": [list(p) for p in SYNTHETIC_WEAR_POINTS if p[0] <= runs],
    }
    (out_dir / FIXTURE_META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out_dir


def _main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Write the synthetic milling-style fixture")
    parser.add_argument("out_dir", help="directory to create the fixture in")
    parser.add_argument("--runs", type=int, default=14)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sample-rate", type=float, default=250.0)
    args = parser.parse_args()
    path = write_synthetic_fixture(
        args.out_dir, runs=args.runs, sample_rate_hz=args.sample_rate, seed=args.seed
    )
    print(f"wrote {args.runs}-run fixture to {path}")


if __name__ == "__main__":
    _main()
