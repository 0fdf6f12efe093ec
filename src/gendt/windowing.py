"""Epoch enumeration and cross-run observation window extraction.

Both rules read a state's run timeline (`Ptog.runs_by_state`): the runs before
a target are the timeline up to the target's bisect position. Pure functions
over an immutable graph; safe for concurrent extraction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import GendtError
from .ptog import MeasurementSeries, Ptog, RunId, StateId


class NoHistory(GendtError):
    """No prior run carries a measurement for the requested state."""


class EpochPoint(NamedTuple):
    """A (run, state) vertex at which a forecast is triggered; it is the
    vertex's key, so `epoch in ptog.vertices` and `ptog.series.get(epoch)`."""

    run: RunId
    state: StateId


def _prior_runs(ptog: Ptog, run: RunId, state: StateId) -> tuple[RunId, ...]:
    """The runs before `run` that carry a series for `state`, oldest first."""
    timeline = ptog.runs_by_state[state]
    return timeline[: bisect_left(timeline, run)]


def enumerate_epochs(ptog: Ptog, min_history: int) -> list[EpochPoint]:
    """All vertices with at least `min_history` prior runs carrying the state.

    Ordered by (run index, state index); a run's own measurement never counts
    toward its history, so the first run of a state is never an epoch.
    `min_history` is at least 1, as `RunConfig` checks.
    """
    return [
        EpochPoint(run, state)
        for run in ptog.runs
        for state in ptog.states
        if (run, state) in ptog.vertices and len(_prior_runs(ptog, run, state)) >= min_history
    ]


def extract_window(ptog: Ptog, epoch: EpochPoint, depth: int) -> tuple[MeasurementSeries, ...]:
    """The epoch state's series from the last `depth` runs before the epoch's
    run that carry it, oldest first; fewer when the timeline is shorter.

    The target run's own measurement is never included. Raises NoHistory when
    zero prior runs carry the state. `epoch` is a vertex of `ptog`:
    `enumerate_epochs` yields only vertices, and `cmd_forecast` checks one.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    prior = _prior_runs(ptog, epoch.run, epoch.state)
    if not prior:
        raise NoHistory(
            f"no run before {epoch.run.index} carries state {epoch.state.label}"
        )
    return tuple(ptog.series[(run, epoch.state)] for run in prior[-depth:])
