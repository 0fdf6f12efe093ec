"""Milling-style fixture ingestion: per-run current CSVs, cut into three
process states at explicit boundaries, plus flank-wear metadata, producing the
observation graph.

`fixture.json` gives each run's `[start, p1_end, p2_end, end]` sample
indices, and a run is cut there and nowhere else. `load_fixture_meta` checks
every rule of `fixture.json` but the one that needs a run CSV: `end` lies
within the run. Data whose states are not labeled this way is segmented
outside gendt and enters as a graph file or as the manifest file
`ptog.save_manifest` writes; `Ptog.from_series` validates it either way. A
synthetic fixture generator ships here so tests never need external files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import INTEGER, NUMBER, OBJECT, RATE, GendtError, Kind, checked, list_of, read_json, shown
from .ptog import MeasurementSeries, Ptog, RunId, SensorId, StateId, read_samples_csv

STATE_LABELS = ("P1", "P2", "P3")
SENSOR_NAME = "spindle_current"
SENSOR_UNIT = "A"
FIXTURE_META_NAME = "fixture.json"

Bounds = tuple[int, int, int, int]


class DatasetError(GendtError):
    pass


def segment(samples: Sequence[float], bounds: Bounds) -> tuple[Sequence[float], ...]:
    """Cut one run's trace at [start, p1_end, p2_end, end] into the three
    process states (entry, stable, exit). `fixture.json` holds the bounds in
    order, so none of the states is empty; `end` must lie within the run."""
    start, p1_end, p2_end, end = bounds
    if end > len(samples):
        raise DatasetError(f"boundaries {bounds} must end within the run's {len(samples)} samples")
    return samples[start:p1_end], samples[p1_end:p2_end], samples[p2_end:end]


def interpolate_wear(
    known: Sequence[tuple[int, float]], runs: Sequence[int]
) -> dict[int, dict[str, float]]:
    """Each run's metadata: `flank_wear_mm`, linearly interpolated between
    the known runs, and `flank_wear_interpolated`, 1.0 unless the run is
    known. Runs outside the known span take the nearest known value, so one
    known run sets every run, and none sets no metadata. The points and the
    order of their runs were checked where they entered, in `fixture.json`."""
    known_map = dict(known)
    metadata = {}
    for run in runs if known else ():
        if run in known_map:
            w = known_map[run]
        elif run < known[0][0]:
            w = known[0][1]
        elif run > known[-1][0]:
            w = known[-1][1]
        else:
            (r0, w0), (r1, w1) = next(p for p in zip(known, known[1:]) if p[0][0] < run < p[1][0])
            w = w0 + (w1 - w0) * (run - r0) / (r1 - r0)
        metadata[run] = {"flank_wear_mm": w, "flank_wear_interpolated": float(run not in known_map)}
    return metadata


_BOUNDARIES = Kind("a non-empty object of run -> bounds", lambda v: OBJECT.test(v) and bool(v))
_BOUNDS = Kind("4 integers [start, p1_end, p2_end, end] with 0 <= start < p1_end < p2_end < end",
               lambda v: type(v) is list and len(v) == 4 and all(map(INTEGER.test, v))
               and 0 <= v[0] < v[1] < v[2] < v[3])
_WEAR_POINTS = list_of(Kind("a [run, flank_wear_mm] pair of an integer and a finite number >= 0",
                            lambda v: type(v) is list and len(v) == 2
                            and INTEGER.test(v[0]) and NUMBER.test(v[1]) and v[1] >= 0))


def load_fixture_meta(
    fixture_dir: Union[str, Path],
) -> tuple[float, dict[int, Bounds], list[tuple[int, float]]]:
    """Read and check `fixture.json`: the sample rate, each run's boundaries
    and the known wear points, by `errors.checked`, not coerced: a boundary or
    a wear run is a JSON integer, and each run's boundaries and the wear runs
    strictly increase; the rate is a finite number > 0, a wear value >= 0."""
    name = FIXTURE_META_NAME
    meta = checked(DatasetError, read_json(Path(fixture_dir) / name, DatasetError), OBJECT, name)
    rate = float(checked(DatasetError, meta.get("sample_rate_hz"), RATE, f"{name}: sample_rate_hz"))
    if "boundaries" not in meta:
        raise DatasetError(f"{name}: missing 'boundaries' (each run's [start, p1_end, p2_end, end]); "
                           "data segmented outside gendt enters as a graph file or a manifest")
    runs = checked(DatasetError, meta["boundaries"], _BOUNDARIES, f"{name}: boundaries")
    boundaries = {}
    for key, bounds in runs.items():
        if not re.fullmatch("[1-9][0-9]{0,17}", key):  # int() refuses over 4300 digits
            raise DatasetError(f"{name}: boundaries key {shown(key)} is not a run number below 10**18")
        checked(DatasetError, bounds, _BOUNDS, lambda: f"{name}: boundaries of run {key}")
        boundaries[int(key)] = tuple(bounds)
    wear = checked(DatasetError, meta.get("wear_points", []), _WEAR_POINTS, f"{name}: wear_points")
    for i, (before, point) in enumerate(zip(wear, wear[1:]), start=1):
        if point[0] <= before[0]:
            raise DatasetError(f"{name}: wear_points[{i}] must be of a run above {shown(before[0])}, "
                               f"got {shown(point)}")
    return rate, boundaries, [(run, float(w)) for run, w in wear]


def ingest_fixture(fixture_dir: Union[str, Path]) -> Ptog:
    """Cut each run CSV at its boundaries into state series and build the
    observation graph.

    Each run CSV is read once, and each of its three series keeps its own
    copy of its part; nothing is written (`ptog.save_manifest` dumps the
    graph). Ingestion is deterministic: same fixture, same graph.
    """
    fixture_dir = Path(fixture_dir)
    sample_rate_hz, boundaries, wear = load_fixture_meta(fixture_dir)
    runs = sorted(boundaries)
    metadata = interpolate_wear(wear, runs)
    states = [StateId(i, label) for i, label in enumerate(STATE_LABELS, start=1)]
    sensor = SensorId(SENSOR_NAME, SENSOR_UNIT)
    series = []
    for run in runs:
        path = fixture_dir / f"run_{run}.csv"
        samples = read_samples_csv(path)
        try:
            parts = segment(samples, boundaries[run])
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        for state, values in zip(states, parts):
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
