"""Prediction-matrix aggregation: column medians, spread, and error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptyInput, GendtError


class EnsembleError(GendtError):
    pass


class EmptyMatrix(EnsembleError):
    pass


class LengthMismatch(EnsembleError):
    pass


@dataclass(frozen=True)
class PredictionMatrix:
    """Successful forecast attempts as one (attempts, horizon) float array."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        if len(self.rows) == 0:
            raise EmptyMatrix("prediction matrix needs at least one row")
        if len({len(r) for r in self.rows}) != 1:
            raise LengthMismatch("prediction matrix rows have unequal lengths")
        if len(self.rows[0]) == 0:
            raise EmptyInput("prediction matrix rows are empty")
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))

    @property
    def attempts_used(self) -> int:
        return self.rows.shape[0]

    @property
    def horizon(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class PointEstimate:
    median: tuple[float, ...]
    sd: tuple[float, ...]
    attempts_used: int


def aggregate(matrix: PredictionMatrix) -> PointEstimate:
    """Column-wise median (even counts average the two central order statistics)
    and population standard deviation.

    Columns are sorted first so the result is bit-identical under any row
    permutation (floating-point sums are order sensitive otherwise).
    """
    arr = np.sort(matrix.rows, axis=0)
    med = np.median(arr, axis=0)
    sd = np.std(arr, axis=0)  # ddof=0: the attempts are the whole population
    return PointEstimate(
        median=tuple(med.tolist()),
        sd=tuple(sd.tolist()),
        attempts_used=matrix.attempts_used,
    )


def _median_of(estimate: Union[PointEstimate, Sequence[float]]) -> Sequence[float]:
    return estimate.median if isinstance(estimate, PointEstimate) else estimate


def error_stats(
    estimate: Union[PointEstimate, Sequence[float]], truth: Sequence[float]
) -> tuple[float, float]:
    """Mean and population std of the elementwise absolute error."""
    med = _median_of(estimate)
    if len(med) != len(truth):
        raise LengthMismatch(f"estimate length {len(med)} != truth length {len(truth)}")
    if len(truth) == 0:
        raise EmptyInput("error_stats requires at least one element")
    e = np.abs(np.asarray(truth, dtype=float) - np.asarray(med, dtype=float))
    return float(e.mean()), float(e.std())


def rmse(truth: Sequence[float], estimate: ArrayLike) -> Union[float, list[float]]:
    """Root mean squared elementwise difference; a 2-D `estimate` gives one value per row."""
    if np.shape(estimate)[-1:] != (len(truth),):
        raise LengthMismatch(f"truth length {len(truth)} != estimate shape {np.shape(estimate)}")
    if len(truth) == 0:
        raise EmptyInput("rmse requires at least one element")
    d = np.asarray(truth, dtype=float) - np.asarray(estimate, dtype=float)
    r = np.sqrt(np.mean(d * d, axis=-1))
    return r.tolist() if r.ndim else float(r)
