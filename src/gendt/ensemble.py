"""Prediction-matrix aggregation: column medians, spread, and error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    """Successful forecast attempts as one (attempts, horizon) float array;
    a float64 array is taken as is, without a copy."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        if len(self.rows) == 0:
            raise EmptyMatrix("prediction matrix needs at least one row")
        try:
            rows = np.asarray(self.rows, dtype=float)
        except ValueError as exc:
            raise LengthMismatch("prediction matrix rows have unequal lengths") from exc
        if rows.ndim != 2:
            raise LengthMismatch(f"prediction matrix must be 2-D, got shape {rows.shape}")
        if rows.shape[1] == 0:
            raise EmptyInput("prediction matrix rows are empty")
        object.__setattr__(self, "rows", rows)

    @property
    def attempts_used(self) -> int:
        return self.rows.shape[0]

    @property
    def horizon(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True, eq=False)
class PointEstimate:
    median: np.ndarray
    sd: np.ndarray


def aggregate(matrix: PredictionMatrix) -> PointEstimate:
    """Column-wise median (even counts average the two central order statistics)
    and population standard deviation.

    Columns are sorted first so the result is bit-identical under any row
    permutation (floating-point sums are order sensitive otherwise).
    """
    arr = np.sort(matrix.rows, axis=0)
    k = len(arr) // 2
    med = arr[k] if len(arr) % 2 else (arr[k - 1] + arr[k]) / 2
    return PointEstimate(med, np.std(arr, axis=0))  # ddof=0: the attempts are the population


def error_stats(errors: ArrayLike) -> tuple[float, float]:
    """Mean and population std of the absolute values of a 1-D difference array."""
    e = np.abs(np.asarray(errors, dtype=float))
    if e.size == 0:
        raise EmptyInput("error_stats requires at least one element")
    return float(e.mean()), float(e.std())


def rmse(errors: ArrayLike) -> Union[float, np.ndarray]:
    """Root mean square of a difference array along its last axis; a 2-D array
    gives one value per row."""
    e = np.asarray(errors, dtype=float)
    if e.shape[-1:] in ((), (0,)):
        raise EmptyInput("rmse requires at least one element")
    r = np.sqrt(np.mean(e * e, axis=-1))
    return r if r.ndim else float(r)
