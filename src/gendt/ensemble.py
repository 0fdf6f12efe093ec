"""Attempt-matrix aggregation: column medians, spread, and error metrics.

The attempt matrix is the (successes, horizon) float64 array that
`forecast.forecast_ensemble` returns; it is never empty. Each function also
takes a stack of equally shaped matrices or difference arrays, with the
batch on the leading axes, and gives each its value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptyInput


@dataclass(frozen=True, eq=False)
class PointEstimate:
    median: np.ndarray
    sd: np.ndarray


def aggregate(rows: np.ndarray) -> PointEstimate:
    """The attempt matrix's column-wise median (even counts average the two
    central order statistics) and population standard deviation, along the
    attempt axis (the second to last).

    Columns are sorted first so the result is bit-identical under any row
    permutation (floating-point sums are order sensitive otherwise).
    """
    arr = np.sort(rows, axis=-2)
    n = arr.shape[-2]
    k = n // 2
    med = arr[..., k, :] if n % 2 else (arr[..., k - 1, :] + arr[..., k, :]) / 2
    return PointEstimate(med, np.std(arr, axis=-2))  # ddof=0: the attempts are the population


def error_stats(errors: ArrayLike) -> tuple:
    """Mean and population std of the absolute values of a difference array
    along its last axis: two floats for a 1-D array, two arrays for a stack."""
    e = np.abs(np.asarray(errors, dtype=float))
    if e.size == 0:
        raise EmptyInput("error_stats requires at least one element")
    mean, std = e.mean(axis=-1), e.std(axis=-1)
    return (mean, std) if mean.ndim else (float(mean), float(std))


def rmse(errors: ArrayLike) -> Union[float, np.ndarray]:
    """Root mean square of a difference array along its last axis; a 2-D array
    gives one value per row."""
    e = np.asarray(errors, dtype=float)
    if e.shape[-1:] in ((), (0,)):
        raise EmptyInput("rmse requires at least one element")
    r = np.sqrt(np.mean(e * e, axis=-1))
    return r if r.ndim else float(r)
