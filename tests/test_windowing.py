"""Epoch enumeration and window extraction against a brute-force oracle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_random_ptog
from gendt.ptog import MeasurementSeries, Ptog, RunId, SensorId, StateId
from gendt.windowing import EpochPoint, NoHistory, enumerate_epochs, extract_window

SENSOR = SensorId("spindle_current", "A")


def sparse_graph(present: dict[str, list[int]]) -> Ptog:
    """present maps state label -> run indices carrying a series."""
    states = {label: StateId(i + 1, label) for i, label in enumerate(present)}
    series = [
        MeasurementSeries(RunId(r), states[label], SENSOR, 100.0, (float(r), float(r + 1)))
        for label, runs in present.items()
        for r in runs
    ]
    return Ptog.from_series(series)


def brute_force_window(ptog: Ptog, epoch: EpochPoint, depth: int) -> list[int]:
    candidates = sorted(
        r.index
        for r in ptog.runs
        if r < epoch.run and (r, epoch.state) in ptog.series
    )
    return candidates[-depth:]


def test_milling_epochs_runs_5_to_14(milling_ptog):
    epochs = enumerate_epochs(milling_ptog, min_history=4)
    assert len(epochs) == 30
    assert [(e.run.index, e.state.label) for e in epochs] == [
        (r, s) for r in range(5, 15) for s in ("P1", "P2", "P3")
    ]


def test_min_history_one_starts_at_run_two(milling_ptog):
    epochs = enumerate_epochs(milling_ptog, min_history=1)
    assert min(e.run.index for e in epochs) == 2
    assert all(e.run.index >= 2 for e in epochs)


def test_state_present_only_in_first_run_yields_no_epochs():
    ptog = sparse_graph({"P1": [1], "P2": [1, 2, 3]})
    epochs = enumerate_epochs(ptog, min_history=1)
    assert all(e.state.label != "P1" for e in epochs)


def test_extract_runs_3_to_6_for_run7(milling_ptog):
    epoch = EpochPoint(RunId(7), milling_ptog.state_by_label("P1"))
    window = extract_window(milling_ptog, epoch, depth=4)
    assert [s.run.index for s in window] == [3, 4, 5, 6]
    assert all(s.state == epoch.state for s in window)
    assert all(s.sensor.name == "spindle_current" for s in window)


def test_short_history_allowed(milling_ptog):
    epoch = EpochPoint(RunId(2), milling_ptog.state_by_label("P1"))
    window = extract_window(milling_ptog, epoch, depth=4)
    assert [s.run.index for s in window] == [1]  # shorter than the depth asked for


def test_no_history_raises(milling_ptog):
    epoch = EpochPoint(RunId(1), milling_ptog.state_by_label("P1"))
    with pytest.raises(NoHistory):
        extract_window(milling_ptog, epoch, depth=4)


def test_window_never_contains_target_run():
    ptog = sparse_graph({"P1": [1, 2, 3, 4, 5]})
    state = ptog.state_by_label("P1")
    for target in (2, 3, 4, 5):
        window = extract_window(ptog, EpochPoint(RunId(target), state), depth=10)
        assert all(s.run.index < target for s in window)


def test_window_ordering_strictly_increasing():
    ptog = sparse_graph({"P1": [1, 3, 4, 7, 9, 10]})
    window = extract_window(ptog, EpochPoint(RunId(10), ptog.state_by_label("P1")), depth=4)
    indices = [s.run.index for s in window]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_oracle_equivalence_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        ptog = make_random_ptog(rng, max_runs=12, max_states=5)
        depth = int(rng.integers(1, 6))
        for run in ptog.runs:
            for state in ptog.states:
                if (run, state) not in ptog.vertices:
                    continue
                epoch = EpochPoint(run, state)
                expected = brute_force_window(ptog, epoch, depth)
                if not expected:
                    with pytest.raises(NoHistory):
                        extract_window(ptog, epoch, depth)
                    continue
                window = extract_window(ptog, epoch, depth)
                assert [s.run.index for s in window] == expected


def brute_force_epochs(ptog: Ptog, min_history: int) -> list[tuple[int, str]]:
    return [
        (run.index, state.label)
        for run in ptog.runs
        for state in ptog.states
        if (run, state) in ptog.vertices
        and sum(1 for r in ptog.runs if r < run and (r, state) in ptog.series) >= min_history
    ]


def hollowed(ptog: Ptog, rng: np.random.Generator) -> Ptog:
    """`ptog` with about a third of its series turned into series-less vertices."""
    drop = {key for key in sorted(ptog.series, key=lambda k: (k[0], k[1].index))
            if rng.random() < 0.3}
    return Ptog.from_series(
        [s for key, s in ptog.series.items() if key not in drop],
        empty_vertices=[(run, state, ptog.sensors[state]) for run, state in drop],
    )


def test_enumerate_oracle_equivalence_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ptog = make_random_ptog(rng)
        for graph in (ptog, hollowed(ptog, rng)):
            for h in range(1, 6):
                epochs = [(e.run.index, e.state.label) for e in enumerate_epochs(graph, h)]
                assert epochs == brute_force_epochs(graph, h)


def test_enumerate_monotone_in_min_history():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ptog = make_random_ptog(rng)
        previous = None
        for h in range(1, 6):
            current = set(
                (e.run.index, e.state.label) for e in enumerate_epochs(ptog, h)
            )
            if previous is not None:
                assert current <= previous
            previous = current


def test_epochs_only_at_vertices():
    ptog = sparse_graph({"P1": [1, 2, 3, 5], "P2": [1, 2, 3, 4, 5]})
    epochs = enumerate_epochs(ptog, min_history=1)
    assert (4, "P1") not in [(e.run.index, e.state.label) for e in epochs]
